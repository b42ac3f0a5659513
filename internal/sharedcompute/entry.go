package sharedcompute

import (
	"math"
	"sync"

	"repro/internal/mapstore"
	"repro/internal/rf"
)

// Entry is the shared-compute state for one pinned map snapshot. All
// cached values are canonical — functions of (snapshot, cell,
// observation, scale) only — so concurrent fills write identical bits
// and readers never observe a value another session couldn't have
// computed itself.
type Entry struct {
	cache *Cache
	snap  *mapstore.Snapshot
	name  string
	refs  int // guarded by cache.mu
	cellM float64

	repMu sync.RWMutex
	reps  map[Cell]int32 // cell → representative fingerprint index (-1: none)

	rowMu sync.RWMutex
	rows  map[uint64]map[string]*LikRow // Float64bits(scale) → obs key → row
}

// Snapshot returns the pinned snapshot this entry is keyed by.
func (e *Entry) Snapshot() *mapstore.Snapshot { return e.snap }

// CellM returns the likelihood-grid cell size (LikCellM of the
// snapshot).
func (e *Entry) CellM() float64 { return e.cellM }

// CountTracker records one HMM tracker rebuild over this entry's
// snapshot: the tracker adopts the positions the snapshot memoizes
// instead of copying them (see schemes.Fingerprinting).
func (e *Entry) CountTracker() {
	e.cache.trackers.Add(1)
	e.cache.metTrackers.Inc()
}

// RepVec returns the vector of the cell's representative fingerprint —
// the physically nearest point to the cell center, resolved once per
// (snapshot, cell) and shared across observations and sessions. ok is
// false when the snapshot is empty, matching VectorAt's behavior.
func (e *Entry) RepVec(cell Cell) (rf.Vector, bool) {
	idx, ok := e.repIdx(cell)
	if !ok {
		return nil, false
	}
	return e.snap.At(int(idx)).Vec, true
}

// repIdx resolves and caches the representative index for a cell.
// Racing resolvers compute the same deterministic index (the ring
// search is a pure function of the snapshot), so last-write-wins is
// safe.
func (e *Entry) repIdx(cell Cell) (int32, bool) {
	e.repMu.RLock()
	idx, ok := e.reps[cell]
	e.repMu.RUnlock()
	if ok {
		return idx, idx >= 0
	}
	i, found := e.snap.NearestIndexAt(cell.Center(e.cellM))
	idx = int32(i)
	if !found {
		idx = -1
	}
	e.repMu.Lock()
	if e.reps == nil {
		e.reps = make(map[Cell]int32, 64)
	}
	e.reps[cell] = idx
	e.repMu.Unlock()
	return idx, idx >= 0
}

// Row returns the shared likelihood row for (scale, observation),
// creating an empty one on first use. key is the
// fingerprint.AppendObsKey encoding, passed as bytes so the
// steady-state path (row already exists) performs no allocation.
func (e *Entry) Row(scale float64, key []byte) *LikRow {
	bits := math.Float64bits(scale)
	e.rowMu.RLock()
	var r *LikRow
	if inner := e.rows[bits]; inner != nil {
		r = inner[string(key)]
	}
	e.rowMu.RUnlock()
	if r != nil {
		return r
	}
	return e.makeRow(bits, string(key))
}

func (e *Entry) makeRow(bits uint64, key string) *LikRow {
	e.rowMu.Lock()
	defer e.rowMu.Unlock()
	inner := e.rows[bits]
	if inner == nil {
		if e.rows == nil {
			e.rows = make(map[uint64]map[string]*LikRow, 2)
		}
		inner = make(map[string]*LikRow)
		e.rows[bits] = inner
	}
	r := inner[key]
	if r == nil {
		r = &LikRow{cache: e.cache, cells: make(map[Cell]float64, 32)}
		inner[key] = r
	}
	return r
}

// LikRow holds the shared per-cell likelihoods of one (snapshot,
// scale, observation) triple — exactly the values a session's private
// likMemo would hold for the same pass, minus any session dependence.
type LikRow struct {
	cache *Cache
	mu    sync.RWMutex
	cells map[Cell]float64
}

// Lookup returns the shared likelihood for one cell. A miss means no
// session has touched the cell yet: the caller
// computes locally and Publishes.
func (r *LikRow) Lookup(cell Cell) (float64, bool) {
	r.mu.RLock()
	v, ok := r.cells[cell]
	r.mu.RUnlock()
	if ok {
		r.cache.likHits.Add(1)
		r.cache.metHits.Inc()
	} else {
		r.cache.likMisses.Add(1)
		r.cache.metMisses.Inc()
	}
	return v, ok
}

// Publish stores a locally computed likelihood for other sessions.
// Values are canonical, so concurrent publishers of the same cell
// write identical bits and either winning is safe.
func (r *LikRow) Publish(cell Cell, v float64) {
	r.mu.Lock()
	r.cells[cell] = v
	r.mu.Unlock()
}
