package offload

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/sharedcompute"
	"repro/internal/statecodec"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// ErrServerFull reports that the server refused a new session because
// it is at its configured session limit.
var ErrServerFull = errors.New("offload: server full")

// Session is one client's private slice of the server: its own
// framework (schemes, particle filters, IODetector, gating state) plus
// bookkeeping. The paper's workstation likewise hosts the
// particle-filter state per user (§IV-C).
type Session struct {
	ID       uint32
	ClientID string

	fw *core.Framework

	evicted atomic.Bool

	// Owned by the attached serving goroutine; a detach/resume cycle
	// hands them to the next goroutine through the manager's lock.
	replay  replayCache // bounded per-seq result cache
	lastSeq uint32      // newest answered epoch sequence number
	// exportHint is the size of the last ExportState blob, which
	// presizes the next one.
	exportHint int

	// Span-tracing state (nil/empty when the server has no tracer).
	// spans is the framework-observer bridge that turns each epoch's
	// telemetry trace into step/scheme spans; spanLabel names this
	// session on every span and pprof label.
	spans     *trace.EpochSpans
	spanLabel string

	mu         sync.Mutex
	conn       net.Conn // nil while detached
	lastActive time.Time
	epochs     int64
	latency    time.Duration
	lat        *telemetry.Histogram // per-session step-latency distribution

	// pins holds this session's shared-compute entry per map store
	// (nil when shared compute is off; nil again after Close releases
	// them). Guarded by mu; see SessionManager.RepinShared.
	pins map[byte]*sharedcompute.Entry
}

// touch records activity and the latency of one served epoch.
func (s *Session) touch(now time.Time, d time.Duration) {
	s.mu.Lock()
	s.lastActive = now
	s.epochs++
	s.latency += d
	s.mu.Unlock()
	s.lat.ObserveDuration(d)
}

// SessionStat is one session's row in a Stats snapshot.
type SessionStat struct {
	ID         uint32
	ClientID   string
	Epochs     int64
	AvgLatency time.Duration // mean framework step time per epoch
	P50Latency time.Duration // median step time (per-session histogram)
	P95Latency time.Duration // 95th-percentile step time
	Idle       time.Duration // time since the last served epoch
}

// Stats is a point-in-time snapshot of a SessionManager's counters.
type Stats struct {
	Opened   int64 // sessions accepted since start
	Closed   int64 // sessions ended (including evictions)
	Rejected int64 // hellos refused at the session limit
	Evicted  int64 // sessions closed by the idle reaper
	Active   int   // sessions live right now

	EpochsServed    int64         // epochs across all sessions, ever
	EpochLatencyAvg time.Duration // mean framework step time per epoch

	// Failure-containment counters (see internal/faultinject and
	// core.Health): deadline evictions of stalled clients, panics
	// recovered inside session frameworks, and estimates quarantined
	// for non-finite output.
	DeadlineTimeouts     int64
	SchemePanics         int64
	QuarantinedEstimates int64

	// AcceptErrors counts transient listener Accept failures (EMFILE,
	// ECONNABORTED, ...) retried with backoff; Drained counts
	// connections closed by a graceful drain (Server.Drain).
	AcceptErrors int64
	Drained      int64

	// Resume counters: sessions parked after a transport
	// error, re-handshakes re-attached to a parked session, duplicate
	// epochs answered from the per-seq result cache without re-stepping
	// (each replay would otherwise have double-advanced PDR/HMM state),
	// and replay-cache entries evicted at the per-session bound.
	Detached        int64
	Resumed         int64
	ReplayedEpochs  int64
	ReplayEvictions int64

	// Cross-node failover counters: session states injected from a
	// peer's handoff blob (each one is a walk continued on this node
	// after its origin died), and injections refused (bad blob,
	// factory/restore failure, session limit).
	Injected       int64
	InjectFailures int64

	// Shared-compute cache counters (ServerConfig.SharedCompute):
	// per-cell likelihood lookups served from vs missed by the shared
	// snapshot rows, HMM tracker rebuilds served from shared state,
	// entries built/evicted over the server's lifetime, entries
	// resident right now, and the newest resident snapshot version per
	// map store.
	SharedLikHits   int64
	SharedLikMisses int64
	SharedTrackers  int64
	SharedBuilt     int64
	SharedEvicted   int64
	SharedResident  int
	SharedVersions  map[string]uint64

	Sessions []SessionStat // live sessions, per-session detail
}

// SessionManager owns the per-connection frameworks of a multi-user
// offload server: it builds one fresh framework per session from the
// factory, tracks live sessions by ID, enforces the session limit, and
// evicts sessions whose clients have gone quiet.
type SessionManager struct {
	factory     core.FrameworkFactory
	maxSessions int           // 0 = unlimited
	idleTimeout time.Duration // 0 = never evict
	now         func() time.Time

	mu       sync.Mutex
	sessions map[uint32]*Session
	detached map[string]*Session // sessions parked for resume, by client ID
	nextID   uint32

	opened    atomic.Int64
	closed    atomic.Int64
	rejected  atomic.Int64
	evicted   atomic.Int64
	epochs    atomic.Int64
	latency   atomic.Int64 // total step time, nanoseconds
	deadlines atomic.Int64 // sessions evicted at the epoch deadline
	acceptErr atomic.Int64 // transient Accept failures, retried
	drained   atomic.Int64 // connections closed by a graceful drain

	detachedN atomic.Int64 // sessions parked for resume
	resumed   atomic.Int64 // re-handshakes re-attached to a parked session
	replayed  atomic.Int64 // duplicate epochs answered from the seq cache
	replayEv  atomic.Int64 // replay-cache entries evicted at the bound
	injected  atomic.Int64 // sessions injected from a peer handoff blob
	injectErr atomic.Int64 // handoff injections refused

	// Per-session replay cache bounds (0: package defaults).
	replayEntries int
	replayBytes   int

	met    serverMetrics
	health *core.Health // shared across session frameworks; counters are atomic

	// Cross-session shared-compute cache (nil = off) and the stores
	// whose snapshots sessions pin entries for. Set before serving.
	shared       *sharedcompute.Cache
	sharedStores map[byte]*mapstore.Store

	tracer      *trace.Tracer // nil = tracing off
	pprofLabels bool          // label serving goroutines and scheme work
}

// NewSessionManager builds a manager over a framework factory. The
// registry receives the server's RED metrics (sessions, epochs, frame
// bytes, step-latency histogram); nil disables exposition at no cost
// to the serving path.
func NewSessionManager(factory core.FrameworkFactory, maxSessions int, idleTimeout time.Duration, reg *telemetry.Registry) (*SessionManager, error) {
	if factory == nil {
		return nil, fmt.Errorf("offload: session manager needs a framework factory")
	}
	return &SessionManager{
		factory:     factory,
		maxSessions: maxSessions,
		idleTimeout: idleTimeout,
		now:         time.Now,
		sessions:    make(map[uint32]*Session),
		detached:    make(map[string]*Session),
		met:         newServerMetrics(reg),
		health:      core.NewHealth(reg),
	}, nil
}

// SetTracer attaches a span tracer: every subsequently opened session
// gets an EpochSpans observer bridging its framework's epoch traces
// into step/scheme spans. Call before serving; nil keeps tracing off
// (the frameworks then run their zero-alloc unobserved path).
func (m *SessionManager) SetTracer(t *trace.Tracer) { m.tracer = t }

// Tracer returns the attached span tracer (nil = tracing off).
func (m *SessionManager) Tracer() *trace.Tracer { return m.tracer }

// SetPprofLabels enables runtime/pprof labels on serving goroutines
// (session) and per-scheme work, applied to subsequently opened
// sessions. Call before serving.
func (m *SessionManager) SetPprofLabels(on bool) { m.pprofLabels = on }

// noteDeadlineTimeout accounts one session evicted at its epoch
// deadline.
func (m *SessionManager) noteDeadlineTimeout() {
	m.deadlines.Add(1)
	m.met.deadlineTimeouts.Inc()
}

// noteAcceptError accounts one transient listener Accept failure.
func (m *SessionManager) noteAcceptError() {
	m.acceptErr.Add(1)
	m.met.acceptErrors.Inc()
}

// noteDrained accounts one connection closed by a graceful drain.
func (m *SessionManager) noteDrained() {
	m.drained.Add(1)
	m.met.sessionsDrained.Inc()
}

// SetSharedCompute attaches the cross-session shared-compute cache:
// every subsequently opened session's framework reads per-snapshot
// likelihood rows and HMM state through it, and the manager pins one
// entry per store per session (Open retains, RepinShared migrates pins
// across compaction swaps, Close releases — the last release evicts
// the entry). Call before serving; nil keeps shared compute off.
func (m *SessionManager) SetSharedCompute(c *sharedcompute.Cache, stores map[byte]*mapstore.Store) {
	m.shared = c
	m.sharedStores = stores
}

// SharedCompute returns the attached shared-compute cache (nil = off).
func (m *SessionManager) SharedCompute() *sharedcompute.Cache { return m.shared }

// RepinShared refreshes a session's shared-compute pins to the stores'
// current snapshots. Called at every epoch boundary so a compaction
// swap migrates every session's pin — and eventually evicts the
// superseded entry — without any lock on the lock-free read path. A
// session whose pins were already released by Close is left alone.
// No-op when shared compute is off.
func (m *SessionManager) RepinShared(s *Session) {
	if m.shared == nil {
		return
	}
	for id, st := range m.sharedStores {
		snap := st.Snapshot()
		s.mu.Lock()
		if s.pins == nil {
			s.mu.Unlock()
			return
		}
		old := s.pins[id]
		s.mu.Unlock()
		if old != nil && old.Snapshot() == snap {
			continue
		}
		e := m.shared.Retain(snap, st.Name())
		s.mu.Lock()
		if s.pins == nil {
			// Close raced us between the check and the retain: undo.
			s.mu.Unlock()
			m.shared.Release(e)
			return
		}
		old = s.pins[id]
		s.pins[id] = e
		s.mu.Unlock()
		m.shared.Release(old)
	}
}

// releasePins drops every shared-compute pin a session holds and marks
// it past repinning.
func (m *SessionManager) releasePins(s *Session) {
	if m.shared == nil {
		return
	}
	s.mu.Lock()
	pins := s.pins
	s.pins = nil
	s.mu.Unlock()
	for _, e := range pins {
		m.shared.Release(e)
	}
}

// Open admits a new session: it enforces the session limit, builds a
// fresh framework from the factory, and resets it at the client's
// starting position. It returns ErrServerFull at the limit.
func (m *SessionManager) Open(clientID string, start geo.Point, conn net.Conn) (*Session, error) {
	m.mu.Lock()
	if m.maxSessions > 0 && len(m.sessions) >= m.maxSessions {
		m.mu.Unlock()
		m.rejected.Add(1)
		m.met.sessionsRejected.Inc()
		return nil, ErrServerFull
	}
	m.nextID++
	id := m.nextID
	m.mu.Unlock()

	// Build outside the lock: training-grade factories may be slow and
	// must not serialize unrelated sessions.
	fw, err := m.factory()
	if err != nil {
		return nil, fmt.Errorf("offload: framework factory: %w", err)
	}
	// Failure containment reports into the server's shared counters: a
	// panicking or NaN-emitting scheme in any session shows up in
	// scheme_panics_total / quarantined_estimates_total.
	fw.SetHealth(m.health)
	// Pin shared-compute entries before the first Reset so the initial
	// tracker build already runs through the shared path.
	var pins map[byte]*sharedcompute.Entry
	if m.shared != nil {
		fw.SetSharedCompute(m.shared)
		pins = make(map[byte]*sharedcompute.Entry, len(m.sharedStores))
		for mapID, st := range m.sharedStores {
			if e := m.shared.Retain(st.Snapshot(), st.Name()); e != nil {
				pins[mapID] = e
			}
		}
	}
	fw.Reset(start)

	s := &Session{
		ID: id, ClientID: clientID, fw: fw, conn: conn,
		lastActive: m.now(),
		lat:        telemetry.NewHistogram(telemetry.DefBuckets()),
		pins:       pins,
	}
	s.replay.maxEntries, s.replay.maxBytes = m.replayEntries, m.replayBytes
	s.spanLabel = clientID
	if s.spanLabel == "" {
		s.spanLabel = fmt.Sprintf("session-%d", id)
	}
	if m.tracer.Enabled() {
		// Bridge the framework's epoch traces into spans, composing with
		// any observer the factory already attached (e.g. a JSONL epoch
		// writer). Without a tracer no observer is added, preserving the
		// framework's zero-alloc unobserved path.
		s.spans = trace.NewEpochSpans(m.tracer, s.spanLabel)
		if prev := fw.Observer(); prev != nil {
			fw.SetObserver(telemetry.MultiObserver(prev, s.spans))
		} else {
			fw.SetObserver(s.spans)
		}
	}
	if m.pprofLabels {
		fw.SetPprofLabels(true)
	}
	m.mu.Lock()
	if m.maxSessions > 0 && len(m.sessions) >= m.maxSessions {
		// Lost the race against concurrent opens while building.
		m.mu.Unlock()
		m.rejected.Add(1)
		m.met.sessionsRejected.Inc()
		m.releasePins(s)
		return nil, ErrServerFull
	}
	m.sessions[id] = s
	active := len(m.sessions)
	m.mu.Unlock()
	m.opened.Add(1)
	m.met.sessionsOpened.Inc()
	m.met.sessionsActive.Set(float64(active))
	return s, nil
}

// Detach parks a live session for seq-numbered resume after a
// transport error: the framework (with its PDR/HMM state) and the
// per-seq result cache survive, the dead connection is dropped. A
// re-handshake with the same client ID re-attaches via Resume; until
// then the session stays in the live set and remains subject to idle
// eviction. No-op when the session is no longer live.
func (m *SessionManager) Detach(s *Session) {
	m.mu.Lock()
	if _, live := m.sessions[s.ID]; !live {
		m.mu.Unlock()
		return
	}
	// At most one parked session per client ID: a newer detach under
	// the same ID supersedes (and closes) the older one.
	old := m.detached[s.ClientID]
	m.detached[s.ClientID] = s
	m.mu.Unlock()
	s.mu.Lock()
	s.conn = nil
	s.mu.Unlock()
	if old != nil && old != s {
		m.Close(old)
	}
	m.detachedN.Add(1)
	m.met.sessionsDetached.Inc()
}

// Resume re-attaches a previously detached session to a fresh
// connection, preserving its framework state exactly — no Reset, so a
// resumed walk continues from the state the last served epoch left.
// Only already-detached sessions match: a re-handshake racing the old
// serving goroutine's exit gets a fresh session instead (the stale one
// idles out). Returns nil when there is nothing to resume.
func (m *SessionManager) Resume(clientID string, conn net.Conn) *Session {
	if clientID == "" {
		return nil
	}
	m.mu.Lock()
	s := m.detached[clientID]
	if s == nil || s.evicted.Load() {
		m.mu.Unlock()
		return nil
	}
	delete(m.detached, clientID)
	m.mu.Unlock()
	s.mu.Lock()
	s.conn = conn
	s.lastActive = m.now()
	s.mu.Unlock()
	m.resumed.Add(1)
	m.met.sessionsResumed.Inc()
	return s
}

// noteReplay accounts one duplicate epoch answered from a session's
// per-seq result cache instead of being re-stepped.
func (m *SessionManager) noteReplay() {
	m.replayed.Add(1)
	m.met.epochsReplayed.Inc()
}

// noteReplayEvictions accounts replay-cache entries evicted at the
// per-session bound.
func (m *SessionManager) noteReplayEvictions(n int) {
	if n <= 0 {
		return
	}
	m.replayEv.Add(int64(n))
	m.met.replayEvictions.Add(int64(n))
}

// SetReplayCaps bounds every subsequently opened (or injected)
// session's replay cache: at most entries cached results, at most
// bytes of encoded payload, oldest evicted first. Zero values keep the
// package defaults. Call before serving.
func (m *SessionManager) SetReplayCaps(entries, bytes int) {
	m.replayEntries, m.replayBytes = entries, bytes
}

// ExportState serializes a session for cross-node handoff: identity,
// protocol, the replay cache, the given map-store versions, and the
// framework snapshot. Must be called from the goroutine driving the
// session's epochs (it reads the same state Step mutates) — the server
// exports at epoch boundaries.
func (m *SessionManager) ExportState(s *Session, mapVers map[byte]uint64) ([]byte, error) {
	st := SessionState{
		ClientID: s.ClientID,
		Proto:    ProtocolVersion,
		Seq:      s.lastSeq,
		Replay:   s.replay.entries,
		MapVers:  mapVers,
	}
	// One buffer for the whole blob: the framework snapshot is
	// appended in place behind a back-patched length, into capacity
	// sized from the previous export (a session's state size barely
	// moves between epochs) with a little slack for growth.
	dst := make([]byte, 0, max(st.headerLen()+4, s.exportHint+s.exportHint/16))
	dst, at := statecodec.OpenBytes(st.appendHeader(dst))
	dst, err := s.fw.AppendSnapshot(dst)
	if err != nil {
		return nil, err
	}
	dst = statecodec.CloseBytes(dst, at)
	s.exportHint = len(dst)
	return dst, nil
}

// Inject materializes a session from a peer's handoff blob and parks
// it detached, exactly as if the walk had been served here and its
// connection had dropped: a re-handshake under the blob's client ID
// then resumes it via Resume, replay cache intact, framework state
// bit-identical to the origin's last export. Respects the session
// limit. The caller typically follows up with Resume immediately.
func (m *SessionManager) Inject(blob []byte) error {
	err := m.inject(blob)
	if err != nil {
		m.injectErr.Add(1)
		m.met.injectFailures.Inc()
	}
	return err
}

func (m *SessionManager) inject(blob []byte) error {
	st, err := DecodeSessionState(blob)
	if err != nil {
		return err
	}
	if st.ClientID == "" {
		return fmt.Errorf("offload: session state carries no client ID")
	}
	if st.Proto != ProtocolVersion {
		return fmt.Errorf("offload: session state is from protocol v%d, this node speaks v%d", st.Proto, ProtocolVersion)
	}
	m.mu.Lock()
	if m.maxSessions > 0 && len(m.sessions) >= m.maxSessions {
		m.mu.Unlock()
		return ErrServerFull
	}
	m.nextID++
	id := m.nextID
	m.mu.Unlock()

	// Build and restore outside the lock, mirroring Open.
	fw, err := m.factory()
	if err != nil {
		return fmt.Errorf("offload: framework factory: %w", err)
	}
	fw.SetHealth(m.health)
	var pins map[byte]*sharedcompute.Entry
	if m.shared != nil {
		fw.SetSharedCompute(m.shared)
		pins = make(map[byte]*sharedcompute.Entry, len(m.sharedStores))
		for mapID, stg := range m.sharedStores {
			if e := m.shared.Retain(stg.Snapshot(), stg.Name()); e != nil {
				pins[mapID] = e
			}
		}
	}
	s := &Session{
		ID: id, ClientID: st.ClientID, fw: fw,
		lastActive: m.now(),
		lat:        telemetry.NewHistogram(telemetry.DefBuckets()),
		pins:       pins,
	}
	s.spanLabel = st.ClientID
	if err := fw.Restore(st.FW); err != nil {
		m.releasePins(s)
		return fmt.Errorf("offload: restore handoff state: %w", err)
	}
	s.lastSeq = st.Seq
	s.replay.maxEntries, s.replay.maxBytes = m.replayEntries, m.replayBytes
	for _, e := range st.Replay {
		s.replay.put(e.Seq, e.Payload)
	}
	if m.tracer.Enabled() {
		s.spans = trace.NewEpochSpans(m.tracer, s.spanLabel)
		if prev := fw.Observer(); prev != nil {
			fw.SetObserver(telemetry.MultiObserver(prev, s.spans))
		} else {
			fw.SetObserver(s.spans)
		}
	}
	if m.pprofLabels {
		fw.SetPprofLabels(true)
	}

	m.mu.Lock()
	if m.maxSessions > 0 && len(m.sessions) >= m.maxSessions {
		m.mu.Unlock()
		m.releasePins(s)
		return ErrServerFull
	}
	m.sessions[id] = s
	// Park detached: at most one per client ID, newest state wins.
	old := m.detached[st.ClientID]
	m.detached[st.ClientID] = s
	active := len(m.sessions)
	m.mu.Unlock()
	if old != nil && old != s {
		m.Close(old)
	}
	m.injected.Add(1)
	m.met.sessionsInjected.Inc()
	m.met.sessionsActive.Set(float64(active))
	return nil
}

// Close removes a session from the live set and releases its
// shared-compute pins. Idempotent.
func (m *SessionManager) Close(s *Session) {
	m.mu.Lock()
	_, live := m.sessions[s.ID]
	delete(m.sessions, s.ID)
	if m.detached[s.ClientID] == s {
		delete(m.detached, s.ClientID)
	}
	active := len(m.sessions)
	m.mu.Unlock()
	if live {
		m.releasePins(s)
		m.closed.Add(1)
		m.met.sessionsClosed.Inc()
		m.met.sessionsActive.Set(float64(active))
	}
}

// RecordEpoch accounts one served epoch and its framework step time.
func (m *SessionManager) RecordEpoch(s *Session, d time.Duration) {
	s.touch(m.now(), d)
	m.epochs.Add(1)
	m.latency.Add(int64(d))
	m.met.epochsServed.Inc()
	m.met.stepLatency.ObserveDuration(d)
}

// EvictIdle closes the connections of sessions idle longer than the
// configured timeout and returns how many it evicted. The serving
// goroutine notices the closed connection, exits cleanly, and removes
// the session. A zero idle timeout disables eviction.
func (m *SessionManager) EvictIdle() int {
	if m.idleTimeout <= 0 {
		return 0
	}
	cutoff := m.now().Add(-m.idleTimeout)
	var victims []*Session
	m.mu.Lock()
	for _, s := range m.sessions {
		s.mu.Lock()
		idle := s.lastActive.Before(cutoff)
		s.mu.Unlock()
		if idle {
			victims = append(victims, s)
		}
	}
	m.mu.Unlock()
	for _, s := range victims {
		if s.evicted.CompareAndSwap(false, true) {
			m.evicted.Add(1)
			m.met.sessionsEvicted.Inc()
			s.mu.Lock()
			conn := s.conn
			s.mu.Unlock()
			if conn != nil {
				// The serving goroutine notices the closed connection,
				// exits, and removes the session.
				_ = conn.Close()
			} else {
				// A detached session has no serving goroutine to do the
				// removal: close it directly so parked frameworks cannot
				// leak past the idle timeout.
				m.Close(s)
			}
		}
	}
	return len(victims)
}

// liveConns counts sessions currently holding a connection (detached
// sessions hold none). Drain polls this to detect when every serving
// goroutine has reached an epoch boundary and exited.
func (m *SessionManager) liveConns() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.sessions {
		s.mu.Lock()
		if s.conn != nil {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// DisconnectAll force-closes the connection of every live session and
// returns how many it closed. Sessions are marked evicted first, so
// their serving goroutines exit quietly (no detach-for-resume: the
// process is going away). Detached sessions, which have no connection,
// are closed outright. Used by Server.Drain once the grace period runs
// out.
func (m *SessionManager) DisconnectAll() int {
	var victims []*Session
	m.mu.Lock()
	for _, s := range m.sessions {
		victims = append(victims, s)
	}
	m.mu.Unlock()
	n := 0
	for _, s := range victims {
		if !s.evicted.CompareAndSwap(false, true) {
			continue
		}
		n++
		m.noteDrained()
		s.mu.Lock()
		conn := s.conn
		s.mu.Unlock()
		if conn != nil {
			_ = conn.Close()
		} else {
			m.Close(s)
		}
	}
	return n
}

// Stats returns a snapshot of the manager's counters and live
// sessions.
func (m *SessionManager) Stats() Stats {
	st := Stats{
		Opened:               m.opened.Load(),
		Closed:               m.closed.Load(),
		Rejected:             m.rejected.Load(),
		Evicted:              m.evicted.Load(),
		EpochsServed:         m.epochs.Load(),
		DeadlineTimeouts:     m.deadlines.Load(),
		SchemePanics:         m.health.SchemePanics.Value(),
		QuarantinedEstimates: m.health.Quarantined.Value(),
		AcceptErrors:         m.acceptErr.Load(),
		Drained:              m.drained.Load(),
		Detached:             m.detachedN.Load(),
		Resumed:              m.resumed.Load(),
		ReplayedEpochs:       m.replayed.Load(),
		ReplayEvictions:      m.replayEv.Load(),
		Injected:             m.injected.Load(),
		InjectFailures:       m.injectErr.Load(),
	}
	if m.shared != nil {
		cs := m.shared.Stats()
		st.SharedLikHits = cs.LikHits
		st.SharedLikMisses = cs.LikMisses
		st.SharedTrackers = cs.Trackers
		st.SharedBuilt = cs.Built
		st.SharedEvicted = cs.Evicted
		st.SharedResident = cs.Resident
		st.SharedVersions = cs.ResidentVersions
	}
	if st.EpochsServed > 0 {
		st.EpochLatencyAvg = time.Duration(m.latency.Load() / st.EpochsServed)
	}
	now := m.now()
	m.mu.Lock()
	st.Active = len(m.sessions)
	st.Sessions = make([]SessionStat, 0, len(m.sessions))
	for _, s := range m.sessions {
		s.mu.Lock()
		row := SessionStat{ID: s.ID, ClientID: s.ClientID, Epochs: s.epochs, Idle: now.Sub(s.lastActive)}
		if s.epochs > 0 {
			row.AvgLatency = s.latency / time.Duration(s.epochs)
		}
		s.mu.Unlock()
		if s.lat.Count() > 0 {
			row.P50Latency = time.Duration(s.lat.Quantile(0.5) * float64(time.Second))
			row.P95Latency = time.Duration(s.lat.Quantile(0.95) * float64(time.Second))
		}
		st.Sessions = append(st.Sessions, row)
	}
	m.mu.Unlock()
	return st
}
