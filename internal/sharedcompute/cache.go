// Package sharedcompute amortizes per-snapshot scheme work across
// every session of an offload server. UniLoc's premise is that many
// phones run the same schemes against the same radio map: at 64+
// concurrent sessions, each one privately recomputing RSSI likelihood
// memos, HMM state lists, and neighbor graphs against the *same*
// pinned mapstore.Snapshot wastes 63/64ths of that work. This package
// holds one immutable Entry per live snapshot, read lock-free by every
// session via an atomic.Pointer index, containing:
//
//   - per-(scale, observation) RSSI likelihood rows — the canonical
//     per-cell values Fusion.weightByRSSI memoizes, computed once and
//     shared (LikRow);
//   - per-cell representative fingerprint indices, resolving each
//     likelihood-grid cell's nearest fingerprint once (RepVec).
//
// Every cached value is *canonical*: it depends only on (snapshot,
// cell, observation, scale), never on any session's private state, so
// one session's computation is bit-for-bit valid for all others —
// shared-compute results are Float64bits-identical to private compute
// by construction, and two sessions racing to fill the same slot write
// identical bits. On any miss (snapshot not pinned, row not yet
// filled) consumers fall back to local computation of the exact same
// float sequence, so correctness never depends on the cache's state.
//
// Lifecycle: the session manager Retains one entry per map store when
// a session opens, migrates pins when a compaction swaps the snapshot
// (RepinShared at epoch boundaries), and Releases at close; the
// last release evicts the entry, bounding residency to snapshots some
// session actually pins. See DESIGN.md §16.
package sharedcompute

import (
	"sync"
	"sync/atomic"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/telemetry"
)

// Cell aliases the mapstore likelihood-grid cell so scheme code can
// key memos without importing mapstore directly.
type Cell = mapstore.LikCell

// CellFor returns the likelihood-grid cell containing p.
func CellFor(p geo.Point, cellM float64) Cell { return mapstore.LikCellFor(p, cellM) }

// Likelihood is the canonical RSSI likelihood expression
// (mapstore.CellLikelihood) re-exported for scheme code.
func Likelihood(d, scale float64) float64 { return mapstore.CellLikelihood(d, scale) }

// LikCellM returns the fusion likelihood-grid cell size for a view:
// half the survey spacing, with a 1.5 m fallback for maps that don't
// report spacing. Both the private memo and the shared rows grid with
// this one function, so their cells always coincide.
func LikCellM(view fingerprint.Reader) float64 {
	c := view.Spacing() / 2
	if c <= 0 {
		c = 1.5
	}
	return c
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// LikHits / LikMisses count per-cell likelihood lookups served
	// from vs missed by shared rows.
	LikHits   int64
	LikMisses int64
	// Trackers counts HMM tracker rebuilds over pinned snapshots,
	// which adopt the snapshot's memoized positions and kernel.
	Trackers int64
	// Built / Evicted count entry lifecycle events; Resident is the
	// number of entries currently pinned.
	Built    int64
	Evicted  int64
	Resident int
	// ResidentVersions maps store name to the newest resident snapshot
	// version for that store.
	ResidentVersions map[string]uint64
}

// Cache is the cross-session shared-compute cache: an immutable index
// from pinned snapshot to Entry, swapped copy-on-write under mu and
// read lock-free through an atomic.Pointer.
type Cache struct {
	idx atomic.Pointer[index]
	mu  sync.Mutex // guards index swaps and Entry refcounts

	reg *telemetry.Registry

	likHits   atomic.Int64
	likMisses atomic.Int64
	trackers  atomic.Int64
	built     atomic.Int64
	evicted   atomic.Int64

	metHits     *telemetry.Counter
	metMisses   *telemetry.Counter
	metTrackers *telemetry.Counter
	metBuilt    *telemetry.Counter
	metEvicted  *telemetry.Counter
	metResident *telemetry.Gauge
	verGauges   map[string]*telemetry.Gauge // per store name, under mu
}

// index is the immutable snapshot→entry map; every mutation installs a
// fresh copy.
type index struct {
	entries map[*mapstore.Snapshot]*Entry
}

// NewCache builds a cache registering its instruments on reg (nil reg
// = no metrics, counters still work).
func NewCache(reg *telemetry.Registry) *Cache {
	return &Cache{
		reg:         reg,
		metHits:     reg.Counter("uniloc_sharedcompute_hits_total", "Per-cell likelihood lookups served from shared snapshot rows."),
		metMisses:   reg.Counter("uniloc_sharedcompute_misses_total", "Per-cell likelihood lookups that fell back to local compute."),
		metTrackers: reg.Counter("uniloc_sharedcompute_tracker_shares_total", "HMM tracker rebuilds served from shared positions and neighbor lists."),
		metBuilt:    reg.Counter("uniloc_sharedcompute_entries_built_total", "Shared-compute entries built (one per newly pinned snapshot)."),
		metEvicted:  reg.Counter("uniloc_sharedcompute_entries_evicted_total", "Shared-compute entries evicted after their last session pin was released."),
		metResident: reg.Gauge("uniloc_sharedcompute_resident_entries", "Shared-compute entries currently pinned by at least one session."),
		verGauges:   make(map[string]*telemetry.Gauge),
	}
}

// Retain pins snap's entry for one session, building it on first
// retain. name labels the entry with its store (for metrics and
// Stats). Callers must pair every Retain with exactly one Release.
// Nil-safe: a nil cache or snapshot returns nil.
func (c *Cache) Retain(snap *mapstore.Snapshot, name string) *Entry {
	if c == nil || snap == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.idx.Load()
	if cur != nil {
		if e := cur.entries[snap]; e != nil {
			e.refs++
			return e
		}
	}
	e := &Entry{cache: c, snap: snap, name: name, refs: 1, cellM: LikCellM(snap)}
	next := &index{entries: make(map[*mapstore.Snapshot]*Entry, 1+lenIdx(cur))}
	if cur != nil {
		for k, v := range cur.entries {
			next.entries[k] = v
		}
	}
	next.entries[snap] = e
	c.idx.Store(next)
	c.built.Add(1)
	c.metBuilt.Inc()
	c.metResident.Set(float64(len(next.entries)))
	c.versionGauge(name).Set(float64(snap.Version()))
	return e
}

// Release drops one pin. The last release evicts the entry from the
// index; in-flight readers holding the entry pointer finish safely
// (entries are immutable), new Gets miss and compute privately.
func (c *Cache) Release(e *Entry) {
	if c == nil || e == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e.refs--
	if e.refs > 0 {
		return
	}
	cur := c.idx.Load()
	if cur == nil || cur.entries[e.snap] != e {
		return
	}
	next := &index{entries: make(map[*mapstore.Snapshot]*Entry, lenIdx(cur)-1)}
	for k, v := range cur.entries {
		if k != e.snap {
			next.entries[k] = v
		}
	}
	c.idx.Store(next)
	c.evicted.Add(1)
	c.metEvicted.Inc()
	c.metResident.Set(float64(len(next.entries)))
}

// Get returns the entry pinned for view, or nil when view is not a
// currently pinned store snapshot. Lock-free: one atomic load plus a
// read of an immutable map, safe from any number of goroutines.
func (c *Cache) Get(view fingerprint.Reader) *Entry {
	if c == nil {
		return nil
	}
	idx := c.idx.Load()
	if idx == nil {
		return nil
	}
	snap, ok := view.(*mapstore.Snapshot)
	if !ok {
		return nil
	}
	return idx.entries[snap]
}

// Stats returns the cache's counters. Nil-safe.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		LikHits:   c.likHits.Load(),
		LikMisses: c.likMisses.Load(),
		Trackers:  c.trackers.Load(),
		Built:     c.built.Load(),
		Evicted:   c.evicted.Load(),
	}
	if idx := c.idx.Load(); idx != nil && len(idx.entries) > 0 {
		st.Resident = len(idx.entries)
		st.ResidentVersions = make(map[string]uint64, 2)
		for snap, e := range idx.entries {
			if v := snap.Version(); v > st.ResidentVersions[e.name] {
				st.ResidentVersions[e.name] = v
			}
		}
	}
	return st
}

// versionGauge lazily creates the per-store newest-resident-version
// gauge. Called under mu.
func (c *Cache) versionGauge(name string) *telemetry.Gauge {
	g, ok := c.verGauges[name]
	if !ok {
		g = c.reg.Gauge("uniloc_sharedcompute_resident_version", "Newest resident snapshot version per map store.", "map", name)
		c.verGauges[name] = g
	}
	return g
}

func lenIdx(i *index) int {
	if i == nil {
		return 0
	}
	return len(i.entries)
}
