package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/statecodec"
	"repro/internal/telemetry"
)

// Session-handoff frame types (same [type][uint32 len][payload]
// framing as replication — repwire.go — because a session state blob
// carries whole particle sets and HMM beliefs, far past the offload
// frame's uint16 length).
const (
	hoPut   byte = 10 // origin → peer: push one session state
	hoGet   byte = 11 // node → peer: fetch request by client ID
	hoState byte = 12 // peer → node: fetch reply carrying state
	hoMiss  byte = 13 // peer → node: fetch reply, no state held
)

// writeHandoffPut writes a push frame, writeRepFrame(w, hoPut,
// [u32 seq][client][state]), without copying the state: the frame and
// push headers are built in hdr (scratch, returned for reuse) and go
// out with the state in one vectored write on a TCP connection.
func writeHandoffPut(w io.Writer, hdr []byte, clientID string, seq uint32, state []byte) ([]byte, error) {
	n := 4 + 4 + len(clientID) + 4 + len(state)
	if n > maxRepPayload {
		return hdr, fmt.Errorf("%w: frame payload %d exceeds %d", ErrRepProtocol, n, maxRepPayload)
	}
	hdr = binary.BigEndian.AppendUint32(append(hdr[:0], hoPut), uint32(n))
	hdr = statecodec.AppendU32(hdr, seq)
	hdr = statecodec.AppendString(hdr, clientID)
	hdr = statecodec.AppendU32(hdr, uint32(len(state)))
	bufs := net.Buffers{hdr, state}
	_, err := bufs.WriteTo(w)
	return hdr, err
}

// decodeHandoffPut unpacks a push. The state is returned as a subslice
// of b, not a copy: readRepFrame allocates every payload afresh, so
// the frame is the state's only owner.
func decodeHandoffPut(b []byte) (clientID string, seq uint32, state []byte, err error) {
	r := statecodec.NewReader(b)
	seq = r.U32()
	clientID = r.String()
	state = r.BytesRef()
	if err = r.Err(); err != nil || r.Remaining() != 0 {
		return "", 0, nil, fmt.Errorf("%w: malformed handoff put", ErrRepProtocol)
	}
	return clientID, seq, state, nil
}

// handoffMetrics are the handoff manager's instruments.
type handoffMetrics struct {
	shipped      *telemetry.Counter
	shipFailures *telemetry.Counter
	putsStored   *telemetry.Counter
	statesHeld   *telemetry.Gauge
	fetchLocal   *telemetry.Counter
	fetchRemote  *telemetry.Counter
	fetchMisses  *telemetry.Counter
}

func newHandoffMetrics(reg *telemetry.Registry) handoffMetrics {
	return handoffMetrics{
		shipped:      reg.Counter("uniloc_handoff_shipped_total", "session states pushed to a peer node"),
		shipFailures: reg.Counter("uniloc_handoff_ship_failures_total", "session state pushes that failed and were requeued"),
		putsStored:   reg.Counter("uniloc_handoff_puts_total", "session states received from peers and stored"),
		statesHeld:   reg.Gauge("uniloc_handoff_states_held", "peer session states resident right now"),
		fetchLocal:   reg.Counter("uniloc_handoff_fetch_hits_total", "session fetches served from the local peer-state cache"),
		fetchRemote:  reg.Counter("uniloc_handoff_fetch_remote_hits_total", "session fetches served by querying a peer"),
		fetchMisses:  reg.Counter("uniloc_handoff_fetch_misses_total", "session fetches no peer could serve"),
	}
}

// HandoffConfig configures a node's session-handoff manager.
type HandoffConfig struct {
	// Peers are the handoff listen addresses of the other cluster
	// nodes. Session states are replicated to every peer; a fetch
	// queries them in order. Empty is legal — the node then only serves
	// states pushed to it.
	Peers []string

	// MaxStates caps the peer-state cache (oldest evicted first).
	// <= 0 uses 4096.
	MaxStates int

	// DialTimeout bounds peer dials and per-frame I/O. <= 0 uses 2s.
	DialTimeout time.Duration

	// Dial overrides the peer dialer — the cluster fault injectors cut
	// the handoff link here. Nil uses net.DialTimeout.
	Dial func(addr string) (net.Conn, error)

	// Metrics receives the handoff instruments. Nil disables exposition.
	Metrics *telemetry.Registry
}

// handoffEntry is one client's newest known session state.
type handoffEntry struct {
	seq   uint32
	state []byte
	at    uint64 // logical arrival stamp, for oldest-first eviction
}

// Handoff replicates offload session states across nodes, making a
// kill -9 survivable: the serving node pushes each session's state to
// its peer set after every epoch (asynchronously, coalesced to the
// newest state per client), and a node that receives a hello for a
// walk it never served fetches the state from the peer set — local
// pushed copy first, then a wire query — and injects it. Plugs
// directly into offload.ServerConfig.ShipSession / FetchSession.
type Handoff struct {
	maxStates int
	timeout   time.Duration
	dial      func(addr string) (net.Conn, error)
	met       handoffMetrics

	mu    sync.Mutex
	cache map[string]handoffEntry
	stamp uint64

	shippers []*shipper
	wg       sync.WaitGroup
	done     chan struct{}
	once     sync.Once
}

// NewHandoff builds the manager and starts one shipping goroutine per
// peer. Close stops them.
func NewHandoff(cfg HandoffConfig) *Handoff {
	h := &Handoff{
		maxStates: cfg.MaxStates,
		timeout:   cfg.DialTimeout,
		dial:      cfg.Dial,
		met:       newHandoffMetrics(cfg.Metrics),
		cache:     make(map[string]handoffEntry),
		done:      make(chan struct{}),
	}
	if h.maxStates <= 0 {
		h.maxStates = 4096
	}
	if h.timeout <= 0 {
		h.timeout = 2 * time.Second
	}
	if h.dial == nil {
		h.dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, h.timeout)
		}
	}
	for _, addr := range cfg.Peers {
		if addr == "" {
			continue
		}
		sh := newShipper(h, addr)
		h.shippers = append(h.shippers, sh)
		h.wg.Add(1)
		go func() { defer h.wg.Done(); sh.run() }()
	}
	return h
}

// Close stops the shippers. Idempotent.
func (h *Handoff) Close() {
	h.once.Do(func() { close(h.done) })
	for _, sh := range h.shippers {
		sh.wake()
	}
	h.wg.Wait()
}

// Ship enqueues one session state for replication to every peer.
// Never blocks: each peer's queue coalesces to the newest state per
// client, so a slow or partitioned peer costs staleness, not memory or
// serving latency. Plugs into offload.ServerConfig.ShipSession.
func (h *Handoff) Ship(clientID string, seq uint32, state []byte) {
	for _, sh := range h.shippers {
		sh.enqueue(clientID, seq, state)
	}
}

// store records a pushed state, newest seq wins (a slow replica of an
// old epoch must never overwrite the state a faster peer already
// delivered for a later one).
func (h *Handoff) store(clientID string, seq uint32, state []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cur, ok := h.cache[clientID]; ok && cur.seq > seq {
		return
	}
	h.stamp++
	h.cache[clientID] = handoffEntry{seq: seq, state: state, at: h.stamp}
	for len(h.cache) > h.maxStates {
		oldID, oldAt := "", uint64(0)
		for id, e := range h.cache {
			if oldID == "" || e.at < oldAt {
				oldID, oldAt = id, e.at
			}
		}
		delete(h.cache, oldID)
	}
	h.met.putsStored.Inc()
	h.met.statesHeld.Set(float64(len(h.cache)))
}

// lookup returns the locally held state for a client (nil = none).
func (h *Handoff) lookup(clientID string) ([]byte, uint32, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.cache[clientID]
	return e.state, e.seq, ok
}

// Lookup reports the newest seq this node holds for a client (test and
// readiness helper: a chaos harness waits for the peer set to hold a
// walk's state before killing its node).
func (h *Handoff) Lookup(clientID string) (uint32, bool) {
	_, seq, ok := h.lookup(clientID)
	return seq, ok
}

// Fetch returns the newest session state reachable for a client:
// the local pushed copy and every peer's answer compete on seq, and
// the newest wins. Querying peers even on a local hit matters under a
// partition — the link that fed this node's cache may have been cut
// epochs ago while another peer kept receiving fresh states, and
// injecting the stale copy would silently rewind the walk. Nil means
// no node holds the walk — the caller opens a fresh session. Plugs
// into offload.ServerConfig.FetchSession.
func (h *Handoff) Fetch(clientID string) []byte {
	best, bestSeq, ok := h.lookup(clientID)
	local := ok
	for _, sh := range h.shippers {
		if state, seq, got := h.fetchFrom(sh.addr, clientID); got && (!ok || seq > bestSeq) {
			best, bestSeq, ok = state, seq, true
			local = false
		}
	}
	switch {
	case !ok:
		h.met.fetchMisses.Inc()
		return nil
	case local:
		h.met.fetchLocal.Inc()
	default:
		h.met.fetchRemote.Inc()
	}
	return best
}

// fetchFrom queries one peer for a client's state over a short-lived
// connection (the reconnect path is rare; correlation on the shipping
// conns is not worth it). Returns the state and the seq it covers.
func (h *Handoff) fetchFrom(addr, clientID string) ([]byte, uint32, bool) {
	conn, err := h.dial(addr)
	if err != nil {
		return nil, 0, false
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(h.timeout))
	if err := writeRepFrame(conn, hoGet, statecodec.AppendString(nil, clientID)); err != nil {
		return nil, 0, false
	}
	t, payload, err := readRepFrame(conn)
	if err != nil || t != hoState {
		return nil, 0, false
	}
	r := statecodec.NewReader(payload)
	seq := r.U32()
	state := r.BytesRef() // the fresh frame is the state's only owner
	if r.Err() != nil {
		return nil, 0, false
	}
	return state, seq, true
}

// ListenAndServe accepts peer connections until the listener closes:
// pushed states are stored, fetch requests answered from the cache.
func (h *Handoff) ListenAndServe(ln net.Listener, errf func(error)) {
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && errf != nil {
				errf(fmt.Errorf("cluster: handoff accept: %w", err))
			}
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := h.servePeer(conn); err != nil && errf != nil {
				errf(err)
			}
		}()
	}
	wg.Wait()
}

// servePeer drives one inbound peer connection.
func (h *Handoff) servePeer(conn net.Conn) error {
	defer func() { _ = conn.Close() }()
	for {
		t, payload, err := readRepFrame(conn)
		if err != nil {
			return nil // peer gone; its shipper redials
		}
		switch t {
		case hoPut:
			clientID, seq, state, err := decodeHandoffPut(payload)
			if err != nil {
				return err
			}
			h.store(clientID, seq, state)
		case hoGet:
			r := statecodec.NewReader(payload)
			clientID := r.String()
			if r.Err() != nil {
				return fmt.Errorf("%w: malformed handoff get", ErrRepProtocol)
			}
			state, seq, ok := h.lookup(clientID)
			if !ok {
				if err := writeRepFrame(conn, hoMiss, nil); err != nil {
					return nil
				}
				continue
			}
			reply := statecodec.AppendU32(nil, seq)
			reply = statecodec.AppendBytes(reply, state)
			if err := writeRepFrame(conn, hoState, reply); err != nil {
				return nil
			}
		default:
			return fmt.Errorf("%w: unexpected handoff frame type %d", ErrRepProtocol, t)
		}
	}
}

// shipper replicates states to one peer over a persistent connection,
// coalescing to the newest state per client and redialing with backoff
// on failure.
type shipper struct {
	h    *Handoff
	addr string

	mu      sync.Mutex
	cond    *sync.Cond
	pending map[string]handoffEntry
	order   []string // FIFO of clients with a pending state

	conn net.Conn
	hdr  []byte // writeHandoffPut's scratch
}

func newShipper(h *Handoff, addr string) *shipper {
	sh := &shipper{h: h, addr: addr, pending: make(map[string]handoffEntry)}
	sh.cond = sync.NewCond(&sh.mu)
	return sh
}

func (sh *shipper) wake() { sh.cond.Broadcast() }

// enqueue replaces the client's pending state with the newest one.
func (sh *shipper) enqueue(clientID string, seq uint32, state []byte) {
	sh.mu.Lock()
	if _, queued := sh.pending[clientID]; !queued {
		sh.order = append(sh.order, clientID)
	}
	sh.pending[clientID] = handoffEntry{seq: seq, state: state}
	sh.mu.Unlock()
	sh.cond.Signal()
}

// pop blocks for the next pending client, or returns false on Close.
func (sh *shipper) pop() (string, handoffEntry, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		select {
		case <-sh.h.done:
			return "", handoffEntry{}, false
		default:
		}
		if len(sh.order) > 0 {
			id := sh.order[0]
			sh.order = sh.order[1:]
			e, ok := sh.pending[id]
			if !ok {
				continue // superseded entry already delivered
			}
			delete(sh.pending, id)
			return id, e, true
		}
		sh.cond.Wait()
	}
}

// requeue puts a failed delivery back at the head unless a newer state
// for the client arrived meanwhile.
func (sh *shipper) requeue(clientID string, e handoffEntry) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, queued := sh.pending[clientID]; queued && cur.seq >= e.seq {
		return
	}
	if _, queued := sh.pending[clientID]; !queued {
		sh.order = append([]string{clientID}, sh.order...)
	}
	sh.pending[clientID] = e
}

func (sh *shipper) run() {
	backoff := 10 * time.Millisecond
	const maxBackoff = time.Second
	for {
		clientID, e, ok := sh.pop()
		if !ok {
			if sh.conn != nil {
				_ = sh.conn.Close()
			}
			return
		}
		if err := sh.deliver(clientID, e); err != nil {
			sh.h.met.shipFailures.Inc()
			sh.requeue(clientID, e)
			select {
			case <-sh.h.done:
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = 10 * time.Millisecond
		sh.h.met.shipped.Inc()
	}
}

// deliver writes one state over the persistent peer connection,
// dialing it first if needed.
func (sh *shipper) deliver(clientID string, e handoffEntry) error {
	if sh.conn == nil {
		conn, err := sh.h.dial(sh.addr)
		if err != nil {
			return err
		}
		sh.conn = conn
	}
	_ = sh.conn.SetWriteDeadline(time.Now().Add(sh.h.timeout))
	var err error
	if sh.hdr, err = writeHandoffPut(sh.conn, sh.hdr, clientID, e.seq, e.state); err != nil {
		_ = sh.conn.Close()
		sh.conn = nil
		return err
	}
	return nil
}
