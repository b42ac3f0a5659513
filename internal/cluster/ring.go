// Package cluster scales the offload serving path across nodes: a
// consistent-hash router proxies the length-prefixed offload protocol
// onto N uniloc-server backends, and a leader/follower replication
// link keeps every node's shared radio-map store bit-identical by
// streaming the leader's compaction deltas (see DESIGN.md §15).
package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// fnv1a is FNV-1a 64 over s, finished with a 64-bit avalanche mix —
// the ring's only hash, inlined rather than hash/fnv so a Pick
// allocates nothing. The finalizer matters: raw FNV-1a barely
// diffuses the last byte (one multiply), and vnode keys differ only
// in their trailing "#i" suffix, so without it one backend's points
// clump on the circle and the ring splits 60/30/10 instead of evenly.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	// fmix64 (MurmurHash3 finalizer).
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// DefaultVNodes is the virtual-node count per backend when RingConfig
// leaves it unset: enough that three backends split client IDs within
// a few percent of evenly.
const DefaultVNodes = 64

// Member is one backend's row in a ring membership snapshot.
type Member struct {
	Addr string
	Up   bool
}

// Ring consistent-hashes string keys (client IDs) onto backend
// addresses. Each backend owns VNodes points on a 64-bit circle; a key
// maps to the first point clockwise of its hash whose backend is up.
// Marking a backend down therefore moves only its keys — every other
// session keeps its node, which is what lets a reconnecting client
// resume its detached server-side session instead of
// restarting its walk.
type Ring struct {
	mu     sync.RWMutex
	points []ringPoint // sorted by hash
	down   map[string]bool
	addrs  []string // insertion order, for Members
	vnodes int
}

type ringPoint struct {
	hash uint64
	addr string
}

// NewRing builds a ring over the backend addresses. vnodes <= 0 uses
// DefaultVNodes.
func NewRing(addrs []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{down: make(map[string]bool, len(addrs)), vnodes: vnodes}
	for _, a := range addrs {
		r.add(a)
	}
	return r
}

// add inserts one backend's vnodes; caller holds no lock (construction)
// or the write lock (Add).
func (r *Ring) add(addr string) bool {
	if addr == "" {
		return false
	}
	for _, a := range r.addrs {
		if a == addr {
			return false
		}
	}
	r.addrs = append(r.addrs, addr)
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{fnv1a(fmt.Sprintf("%s#%d", addr, i)), addr})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].addr < r.points[j].addr
	})
	return true
}

// Add inserts a new live backend into the ring. Only the keys whose
// clockwise-first point now lands on the new backend move — every
// other session keeps its node, the consistent-hashing property that
// makes live backend addition a bounded migration instead of a full
// reshuffle. Returns false (and changes nothing) when the address is
// already a member.
func (r *Ring) Add(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.add(addr)
}

// Pick maps key to its backend, skipping backends marked down. The
// second result is false when every backend is down (or the ring is
// empty).
func (r *Ring) Pick(key string) (string, bool) {
	h := fnv1a(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.points)
	if n == 0 {
		return "", false
	}
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if !r.down[p.addr] {
			return p.addr, true
		}
	}
	return "", false
}

// SetDown marks a backend down (its keys re-route to the next live
// point clockwise) or back up (its keys come home). Unknown addresses
// are ignored.
func (r *Ring) SetDown(addr string, down bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if down {
		r.down[addr] = true
	} else {
		delete(r.down, addr)
	}
}

// Up reports whether the backend is currently considered live.
func (r *Ring) Up(addr string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return !r.down[addr]
}

// Members snapshots the ring's membership in insertion order.
func (r *Ring) Members() []Member {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Member, len(r.addrs))
	for i, a := range r.addrs {
		out[i] = Member{Addr: a, Up: !r.down[a]}
	}
	return out
}
