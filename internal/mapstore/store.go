package mapstore

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/rf"
)

// ErrTooFewTransmitters rejects submitted fingerprints that cannot
// discriminate locations (the survey applies the same rule: matching
// needs at least two audible transmitters).
var ErrTooFewTransmitters = errors.New("mapstore: fingerprint needs at least 2 transmitters")

// ErrBadPosition rejects submitted fingerprints whose position is not a
// finite coordinate within MaxCoordM of the origin. Crowdsourced input
// is untrusted, and a NaN/Inf or absurd coordinate would poison the
// next snapshot's grid extent.
var ErrBadPosition = errors.New("mapstore: fingerprint position is not finite or out of map bounds")

// ErrBadRSSI rejects submitted fingerprints carrying a non-finite RSSI,
// which would propagate NaN/Inf through every distance computed against
// the rebuilt snapshot.
var ErrBadRSSI = errors.New("mapstore: fingerprint RSSI is not finite")

// MaxCoordM bounds accepted survey coordinates (meters from the map
// origin). Site coordinate frames are local, so ±1000 km is far beyond
// any legitimate survey while still rejecting junk that would explode
// the grid.
const MaxCoordM = 1e6

// Config parameterizes a Store.
type Config struct {
	// Name labels the store's metrics ("wifi", "cellular", ...).
	Name string
	// RebuildBatch triggers an asynchronous rebuild once this many
	// submissions are pending. <= 0 uses DefaultRebuildBatch.
	RebuildBatch int
	// RebuildEvery additionally rebuilds on a timer so a trickle of
	// submissions below the batch size still lands. 0 disables the
	// timer.
	RebuildEvery time.Duration
	// CellM overrides the spatial grid cell size; <= 0 picks it from
	// the survey spacing.
	CellM float64
	// Metrics receives store instrumentation; nil disables it.
	Metrics *Metrics
}

// DefaultRebuildBatch is the pending-submission count that triggers a
// background compaction when Config.RebuildBatch is unset.
const DefaultRebuildBatch = 256

// Store is a versioned, shared radio map. Readers call View to pin the
// current immutable Snapshot (one atomic load); writers call Submit to
// queue crowdsourced fingerprints, which a background compactor folds
// into a rebuilt snapshot off the hot path and swaps in atomically.
// Version numbers start at 1 and increase by one per swap, so any two
// readers holding the same version see bit-identical state forever.
type Store struct {
	cfg  Config
	snap atomic.Pointer[Snapshot]

	mu      sync.Mutex // guards pending
	pending []fingerprint.Fingerprint

	rebuildMu sync.Mutex // serializes compactions; guards onRebuild
	onRebuild func(version uint64, applied []fingerprint.Fingerprint)

	kick      chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds a Store over db's points. The database is copied, so the
// caller may keep mutating its own DB; the store's snapshots never
// change underneath a reader. The background compactor starts
// immediately; call Close to stop it.
func New(db *fingerprint.DB, cfg Config) *Store {
	if cfg.RebuildBatch <= 0 {
		cfg.RebuildBatch = DefaultRebuildBatch
	}
	s := &Store{
		cfg:  cfg,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	first := Build(copyDB(db), 1, cfg.CellM, cfg.Metrics)
	s.snap.Store(first)
	cfg.Metrics.snapshotSwapped(first)
	s.wg.Add(1)
	go s.compactor()
	return s
}

// copyDB clones a database's point slice (vectors are shared — they are
// immutable by contract).
func copyDB(db *fingerprint.DB) *fingerprint.DB {
	out := &fingerprint.DB{SpacingM: db.SpacingM, Floor: db.Floor}
	out.Points = append([]fingerprint.Fingerprint(nil), db.Points...)
	return out
}

// View implements fingerprint.Map: one atomic load pins the current
// snapshot for the caller.
func (s *Store) View() fingerprint.Reader { return s.snap.Load() }

// Snapshot returns the current snapshot with its concrete type (for
// NeighborLists, Memo and version/age inspection).
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Version returns the version of the live snapshot.
func (s *Store) Version() uint64 { return s.snap.Load().version }

// Name returns the configured store name ("wifi", "cellular", ...),
// used to label per-store metrics and shared-compute entries.
func (s *Store) Name() string { return s.cfg.Name }

// Pending returns how many submissions await the next compaction.
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Submit queues one crowdsourced fingerprint for the next compaction.
// A submission at the exact position of an existing fingerprint
// replaces that point's vector (map refresh); anywhere else it extends
// the map. Submissions are validated before queueing — non-finite or
// out-of-bounds positions, non-finite RSSI, and vectors with fewer than
// two distinct transmitters are rejected; duplicate transmitter entries
// are merged keeping the strongest reading.
func (s *Store) Submit(fp fingerprint.Fingerprint) error {
	// The negated form also catches NaN (every NaN comparison is false).
	if !(math.Abs(fp.Pos.X) <= MaxCoordM && math.Abs(fp.Pos.Y) <= MaxCoordM) {
		s.cfg.Metrics.submitDropped()
		return ErrBadPosition
	}
	for _, o := range fp.Vec {
		if math.IsNaN(o.RSSI) || math.IsInf(o.RSSI, 0) {
			s.cfg.Metrics.submitDropped()
			return ErrBadRSSI
		}
	}
	// The snapshot's merge-walk distance requires strictly ID-sorted
	// vectors; locally-scanned vectors already are, but crowdsourced
	// input is not trusted to be. Duplicate IDs must not survive: a
	// repeated entry would inflate the per-cell signal-box point counts
	// that Nearest prunes with.
	clean := true
	for i := 1; i < len(fp.Vec); i++ {
		if fp.Vec[i-1].ID >= fp.Vec[i].ID {
			clean = false
			break
		}
	}
	if !clean {
		vec := append(rf.Vector(nil), fp.Vec...)
		sort.Slice(vec, func(a, b int) bool { return vec[a].ID < vec[b].ID })
		w := 0
		for _, o := range vec {
			if w > 0 && vec[w-1].ID == o.ID {
				if o.RSSI > vec[w-1].RSSI {
					vec[w-1].RSSI = o.RSSI
				}
				continue
			}
			vec[w] = o
			w++
		}
		fp.Vec = vec[:w]
	}
	if len(fp.Vec) < 2 {
		s.cfg.Metrics.submitDropped()
		return ErrTooFewTransmitters
	}
	s.mu.Lock()
	s.pending = append(s.pending, fp)
	n := len(s.pending)
	s.mu.Unlock()
	s.cfg.Metrics.submitAccepted(n)
	if n >= s.cfg.RebuildBatch {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// SetOnRebuild installs a hook observing every snapshot swap: it is
// called with the new version and the exact (already-validated) batch
// of fingerprints folded into it, in fold order. Replication hubs use
// it to ship per-version deltas to follower stores: replaying the same
// batches in the same order onto the same base DB rebuilds
// bit-identical snapshots with matching version numbers. The hook runs
// under the rebuild lock — keep it quick (append to a log, signal a
// streamer) and never call back into Rebuild/ApplyDelta from it.
// Install before traffic; nil removes the hook.
func (s *Store) SetOnRebuild(fn func(version uint64, applied []fingerprint.Fingerprint)) {
	s.rebuildMu.Lock()
	s.onRebuild = fn
	s.rebuildMu.Unlock()
}

// fold applies a batch to a copy of cur's database with
// replace-or-extend semantics (a point at the exact position of an
// existing fingerprint refreshes its vector; anywhere else it extends
// the map) and swaps in the rebuilt snapshot. Caller holds rebuildMu.
func (s *Store) fold(cur *Snapshot, batch []fingerprint.Fingerprint) *Snapshot {
	db := copyDB(cur.db)
	byPos := make(map[geo.Point]int, len(db.Points))
	for i, fp := range db.Points {
		byPos[fp.Pos] = i
	}
	for _, fp := range batch {
		if i, ok := byPos[fp.Pos]; ok {
			db.Points[i].Vec = fp.Vec
		} else {
			byPos[fp.Pos] = len(db.Points)
			db.Points = append(db.Points, fp)
		}
	}

	next := Build(db, cur.version+1, s.cfg.CellM, s.cfg.Metrics)
	s.snap.Store(next)
	s.cfg.Metrics.snapshotSwapped(next)
	if s.onRebuild != nil {
		s.onRebuild(next.version, batch)
	}
	return next
}

// Rebuild synchronously folds all pending submissions into a new
// snapshot and swaps it in, returning the live version afterwards. With
// nothing pending it is a no-op. Safe to call concurrently with the
// background compactor and with any number of readers.
func (s *Store) Rebuild() uint64 {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()

	s.mu.Lock()
	batch := s.pending
	s.pending = nil
	s.mu.Unlock()

	cur := s.snap.Load()
	if len(batch) == 0 {
		return cur.version
	}

	next := s.fold(cur, batch)
	s.mu.Lock()
	s.cfg.Metrics.setPending(len(s.pending))
	s.mu.Unlock()
	return next.version
}

// ApplyDelta folds one replicated batch into a new snapshot exactly as
// a local compaction would, returning the new version. Unlike Submit +
// Rebuild it bypasses the pending queue entirely, so a concurrently
// firing background compactor can neither split a delta across two
// versions nor interleave locally queued points into it — the property
// follower stores need for their versions (and snapshot contents) to
// match the leader's bit for bit. The batch must be the leader's
// OnRebuild payload: already validated and in fold order. An empty
// batch still advances the version (the leader's did).
func (s *Store) ApplyDelta(batch []fingerprint.Fingerprint) uint64 {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	return s.fold(s.snap.Load(), batch).version
}

// compactor is the background rebuild loop: it fires on batch-size
// kicks from Submit and, when configured, on a timer.
func (s *Store) compactor() {
	defer s.wg.Done()
	var tick <-chan time.Time
	if s.cfg.RebuildEvery > 0 {
		t := time.NewTicker(s.cfg.RebuildEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.done:
			return
		case <-s.kick:
			s.Rebuild()
		case <-tick:
			s.Rebuild()
		}
	}
}

// Close stops the background compactor after folding in any remaining
// pending submissions. The store remains readable after Close.
// Idempotent and safe for concurrent callers: every Close returns only
// once the shutdown has completed.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.wg.Wait()
		s.Rebuild()
	})
}

func (m *Metrics) submitAccepted(pending int) {
	if m == nil {
		return
	}
	m.submitted.Inc()
	m.pending.Set(float64(pending))
}

func (m *Metrics) submitDropped() {
	if m == nil {
		return
	}
	m.dropped.Inc()
}

func (m *Metrics) setPending(n int) {
	if m == nil {
		return
	}
	m.pending.Set(float64(n))
}
