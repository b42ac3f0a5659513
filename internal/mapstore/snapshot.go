// Package mapstore makes the radio map a first-class shared subsystem:
// an indexed, immutable Snapshot over a fingerprint database, and a
// versioned Store that lets every offload session read one shared map
// concurrently while crowdsourced survey points stream in and a
// background compactor atomically swaps in rebuilt snapshots.
//
// The Snapshot carries two indexes over the same points:
//
//   - a uniform spatial grid over fingerprint positions, answering
//     VectorAt, DensityAround, and physical-neighbour queries by
//     expanding-ring search over O(cell) points instead of O(N);
//   - a coarse signal-space pruning structure (per-grid-cell RSSI
//     bounding boxes over interned transmitter IDs) that lets Nearest
//     skip whole cells whose best possible RSSI distance already loses
//     to the current top-k.
//
// Equivalence guarantee: every query returns *bit-identical* results to
// the linear scans in fingerprint.DB — same matches, same order, same
// floats. The β₁/β₂ error-model features feed trained regressions, so
// the indexes must never change a value, only the work done to find it.
// Exact distances are therefore always computed with the same float
// operation sequence as rf.Distance (interned IDs are ranked in string
// order, keeping merge order identical), candidate selection reuses the
// canonical fingerprint.MatchLess ordering, and pruning bounds carry a
// safety margin so float rounding in a bound can only cost extra work,
// never a wrong skip.
package mapstore

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/rf"
)

// Snapshot is one immutable, indexed revision of a radio map. All
// methods are safe for unlimited concurrent use; a Snapshot never
// changes after Build, so readers pinned to one version are fully
// deterministic no matter what the owning Store swaps in behind them.
type Snapshot struct {
	db      *fingerprint.DB // canonical points; also the exact-fallback path
	version uint64
	built   time.Time
	floor   float64
	spacing float64

	// Spatial grid: CSR of point indices per cell, ascending in each
	// cell. gx0/gy0 anchor cell (0,0); cellM is the edge length.
	gx0, gy0 float64
	cellM    float64
	nx, ny   int
	cellOff  []int32
	cellPts  []int32

	// Interned vectors: transmitter IDs mapped to their rank in sorted
	// string order, so an integer merge walk visits (and sums) exactly
	// the float pairs rf.Distance would.
	dict    map[string]int32
	vecOff  []int32
	vecID   []int32
	vecRSSI []float64

	// Per-cell signal bounding boxes: for each cell, the sorted ranks
	// heard anywhere in the cell with the [lo, hi] RSSI envelope,
	// floor-extended when not every point in the cell hears the
	// transmitter.
	sigOff []int32
	sigID  []int32
	sigLo  []float64
	sigHi  []float64

	// Lazily-built values derived from the snapshot (neighbour lists
	// per radius, other packages' structures), one entry per key.
	memoMu sync.Mutex
	memo   map[any]*memoEntry

	met *Metrics // nil when unobserved
}

// boundEps returns the pruning safety margin around a squared-distance
// (or distance) bound v: bounds are computed with a different float
// operation order than exact distances, so a skip decision backs off by
// a margin far above accumulated rounding yet far below any difference
// that could distinguish real candidates.
func boundEps(v float64) float64 { return 1e-7 + 1e-9*math.Abs(v) }

// autoCellM picks the grid cell size from the survey spacing: a few
// grid pitches per cell keeps ring searches short while giving the
// signal bounding boxes enough points to prune whole cells.
func autoCellM(spacing float64) float64 {
	c := 4 * spacing
	if spacing <= 0 {
		c = 8
	}
	return math.Min(math.Max(c, 2), 64)
}

// maxGridCells caps nx*ny. Store.Submit validates crowdsourced
// positions, but Build must survive any database it is handed: an
// extreme extent coarsens the grid (doubling the cell size) instead of
// exploding the CSR allocation. The cap keeps cell indices well inside
// int32 and the offset array a few MB at worst.
const maxGridCells = 1 << 20

// Build indexes db into an immutable snapshot with the given version.
// cellM <= 0 picks the cell size automatically from the survey spacing.
// The points and vectors of db are referenced, not copied deeply;
// callers hand over ownership and must not mutate db afterwards (Store
// compaction always builds from fresh slices).
func Build(db *fingerprint.DB, version uint64, cellM float64, met *Metrics) *Snapshot {
	if cellM <= 0 {
		cellM = autoCellM(db.SpacingM)
	}
	s := &Snapshot{
		db:      db,
		version: version,
		built:   time.Now(),
		floor:   db.Floor,
		spacing: db.SpacingM,
		cellM:   cellM,
		met:     met,
	}
	n := len(db.Points)
	if n == 0 {
		return s
	}

	// Grid extent over the surveyed positions.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, fp := range db.Points {
		minX = math.Min(minX, fp.Pos.X)
		minY = math.Min(minY, fp.Pos.Y)
		maxX = math.Max(maxX, fp.Pos.X)
		maxY = math.Max(maxY, fp.Pos.Y)
	}
	s.gx0, s.gy0 = minX, minY
	spanX, spanY := maxX-minX, maxY-minY
	if !(spanX >= 0) || math.IsInf(spanX, 0) || !(spanY >= 0) || math.IsInf(spanY, 0) {
		// Non-finite coordinates slipped past the caller's validation:
		// a one-cell grid degrades every query to a (correct) scan of
		// all points instead of computing a grid from garbage.
		spanX, spanY = 0, 0
	}
	// Coarsen until the grid fits the cap; float arithmetic avoids int
	// overflow on extreme-but-finite extents.
	for {
		fx := math.Floor(spanX/cellM) + 1
		fy := math.Floor(spanY/cellM) + 1
		if fx*fy <= maxGridCells {
			s.nx, s.ny = int(fx), int(fy)
			break
		}
		cellM *= 2
	}
	s.cellM = cellM

	// Counting-sort points into cells (CSR), preserving index order
	// within each cell.
	nc := s.nx * s.ny
	counts := make([]int32, nc+1)
	cellOf := make([]int32, n)
	for i, fp := range db.Points {
		c := int32(s.cellX(fp.Pos.X) + s.cellY(fp.Pos.Y)*s.nx)
		cellOf[i] = c
		counts[c+1]++
	}
	for c := 0; c < nc; c++ {
		counts[c+1] += counts[c]
	}
	s.cellOff = counts
	s.cellPts = make([]int32, n)
	fill := make([]int32, nc)
	for i := 0; i < n; i++ {
		c := cellOf[i]
		s.cellPts[s.cellOff[c]+fill[c]] = int32(i)
		fill[c]++
	}

	// Intern transmitter IDs by their rank in sorted string order, so
	// integer comparisons reproduce rf.Distance's merge order exactly.
	idSet := make(map[string]struct{})
	total := 0
	for _, fp := range db.Points {
		total += len(fp.Vec)
		for _, o := range fp.Vec {
			idSet[o.ID] = struct{}{}
		}
	}
	ids := make([]string, 0, len(idSet))
	for id := range idSet {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s.dict = make(map[string]int32, len(ids))
	for r, id := range ids {
		s.dict[id] = int32(r)
	}
	s.vecOff = make([]int32, n+1)
	s.vecID = make([]int32, 0, total)
	s.vecRSSI = make([]float64, 0, total)
	for i, fp := range db.Points {
		// rf.Vector is ID-sorted (Scan guarantees it), and rank order
		// equals string order, so entries land rank-sorted.
		for _, o := range fp.Vec {
			s.vecID = append(s.vecID, s.dict[o.ID])
			s.vecRSSI = append(s.vecRSSI, o.RSSI)
		}
		s.vecOff[i+1] = int32(len(s.vecID))
	}

	// Per-cell signal bounding boxes.
	s.sigOff = make([]int32, nc+1)
	type box struct {
		lo, hi float64
		cnt    int32 // distinct points in the cell hearing this transmitter
		last   int32 // last point counted, so a duplicated ID in one vector counts once
	}
	for c := 0; c < nc; c++ {
		lo, hi := s.cellOff[c], s.cellOff[c+1]
		if lo == hi {
			s.sigOff[c+1] = int32(len(s.sigID))
			continue
		}
		boxes := make(map[int32]*box)
		for _, pi := range s.cellPts[lo:hi] {
			for e := s.vecOff[pi]; e < s.vecOff[pi+1]; e++ {
				id, rssi := s.vecID[e], s.vecRSSI[e]
				b := boxes[id]
				if b == nil {
					boxes[id] = &box{lo: rssi, hi: rssi, cnt: 1, last: pi}
				} else {
					b.lo = math.Min(b.lo, rssi)
					b.hi = math.Max(b.hi, rssi)
					if b.last != pi {
						b.cnt++
						b.last = pi
					}
				}
			}
		}
		ranks := make([]int32, 0, len(boxes))
		for id := range boxes {
			ranks = append(ranks, id)
		}
		sort.Slice(ranks, func(a, b int) bool { return ranks[a] < ranks[b] })
		cellN := hi - lo
		for _, id := range ranks {
			b := boxes[id]
			blo, bhi := b.lo, b.hi
			if b.cnt < cellN {
				// Some point in the cell imputes the floor for this
				// transmitter; extend the envelope to keep the bound
				// valid for every member point.
				blo = math.Min(blo, s.floor)
				bhi = math.Max(bhi, s.floor)
			}
			s.sigID = append(s.sigID, id)
			s.sigLo = append(s.sigLo, blo)
			s.sigHi = append(s.sigHi, bhi)
		}
		s.sigOff[c+1] = int32(len(s.sigID))
	}
	return s
}

// cellX returns the clamped cell column for an x coordinate.
func (s *Snapshot) cellX(x float64) int {
	c := int((x - s.gx0) / s.cellM)
	if c < 0 {
		return 0
	}
	if c >= s.nx {
		return s.nx - 1
	}
	return c
}

// cellY returns the clamped cell row for a y coordinate.
func (s *Snapshot) cellY(y float64) int {
	c := int((y - s.gy0) / s.cellM)
	if c < 0 {
		return 0
	}
	if c >= s.ny {
		return s.ny - 1
	}
	return c
}

// Version implements fingerprint.Reader.
func (s *Snapshot) Version() uint64 { return s.version }

// GridStats reports the spatial grid shape and its non-empty cell count
// — index introspection for tests and debug tooling. A linear-scan
// equivalent of Nearest touches every non-empty cell; the pruning win
// is measured against that.
func (s *Snapshot) GridStats() (nx, ny, nonEmpty int) {
	for c := 0; c < s.nx*s.ny; c++ {
		if s.cellOff[c] != s.cellOff[c+1] {
			nonEmpty++
		}
	}
	return s.nx, s.ny, nonEmpty
}

// BuiltAt returns when this snapshot was assembled.
func (s *Snapshot) BuiltAt() time.Time { return s.built }

// Len implements fingerprint.Reader.
func (s *Snapshot) Len() int { return len(s.db.Points) }

// At implements fingerprint.Reader.
func (s *Snapshot) At(i int) fingerprint.Fingerprint { return s.db.Points[i] }

// FloorDB implements fingerprint.Reader.
func (s *Snapshot) FloorDB() float64 { return s.floor }

// Spacing implements fingerprint.Reader.
func (s *Snapshot) Spacing() float64 { return s.spacing }

// Positions implements fingerprint.Reader.
func (s *Snapshot) Positions() []geo.Point { return s.db.Positions() }

// intern converts an observation to interned (rank, rssi) arrays. ok is
// false when the observation names a transmitter the map has never
// heard — exact float summation order could then differ from the
// string-ordered merge, so callers fall back to the linear path.
func (s *Snapshot) intern(obs rf.Vector) (ids []int32, rssi []float64, ok bool) {
	ids = make([]int32, len(obs))
	rssi = make([]float64, len(obs))
	for i, o := range obs {
		r, known := s.dict[o.ID]
		if !known {
			return nil, nil, false
		}
		ids[i] = r
		rssi[i] = o.RSSI
	}
	return ids, rssi, true
}

// distSqInterned computes the squared RSSI distance between the
// interned observation and point pt with the exact float operation
// sequence of rf.Distance (which returns math.Sqrt of this sum).
func (s *Snapshot) distSqInterned(qid []int32, qr []float64, pt int32) float64 {
	var sum float64
	add := func(x, y float64) {
		d := x - y
		sum += d * d
	}
	i := 0
	j := int(s.vecOff[pt])
	end := int(s.vecOff[pt+1])
	for i < len(qid) && j < end {
		switch {
		case qid[i] == s.vecID[j]:
			add(qr[i], s.vecRSSI[j])
			i++
			j++
		case qid[i] < s.vecID[j]:
			add(qr[i], s.floor)
			i++
		default:
			add(s.floor, s.vecRSSI[j])
			j++
		}
	}
	for ; i < len(qid); i++ {
		add(qr[i], s.floor)
	}
	for ; j < end; j++ {
		add(s.floor, s.vecRSSI[j])
	}
	return sum
}

// cellLowerBound returns a lower bound on the squared RSSI distance
// from the interned observation to ANY point in cell c: per observed
// transmitter, the squared distance from the observed RSSI to the
// cell's [lo, hi] envelope (or to the floor when no point in the cell
// hears it). Contributions from transmitters heard only by the cell are
// nonnegative and ignored, keeping the bound valid.
func (s *Snapshot) cellLowerBound(qid []int32, qr []float64, c int32) float64 {
	var lb float64
	i := 0
	j := int(s.sigOff[c])
	end := int(s.sigOff[c+1])
	for i < len(qid) {
		for j < end && s.sigID[j] < qid[i] {
			j++
		}
		a := qr[i]
		if j < end && s.sigID[j] == qid[i] {
			if a < s.sigLo[j] {
				d := s.sigLo[j] - a
				lb += d * d
			} else if a > s.sigHi[j] {
				d := a - s.sigHi[j]
				lb += d * d
			}
			j++
		} else {
			d := a - s.floor
			lb += d * d
		}
		i++
	}
	return lb
}

// Nearest implements fingerprint.Reader. Cells are scored by their
// signal-space lower bound and scanned in ascending-bound order; a cell
// whose bound already exceeds the current k-th best exact distance (by
// more than the rounding margin) is skipped, along with every cell
// after it. Results are bit-identical to fingerprint.DB.Nearest.
func (s *Snapshot) Nearest(obs rf.Vector, k int) []fingerprint.Match {
	if s.Len() == 0 || k <= 0 {
		return nil
	}
	s.met.lookup(opNearest)
	qid, qr, ok := s.intern(obs)
	if !ok {
		// Unknown transmitter: exact summation order is only defined by
		// the string merge, so take the linear path.
		s.met.observeCells(opNearest, s.nx*s.ny)
		return s.db.Nearest(obs, k)
	}

	// Score every non-empty cell by its lower bound.
	type cellLB struct {
		cell int32
		lb   float64
	}
	lbs := make([]cellLB, 0, s.nx*s.ny)
	for c := int32(0); c < int32(s.nx*s.ny); c++ {
		if s.cellOff[c] == s.cellOff[c+1] {
			continue
		}
		lbs = append(lbs, cellLB{cell: c, lb: s.cellLowerBound(qid, qr, c)})
	}
	sort.Slice(lbs, func(a, b int) bool {
		if lbs[a].lb != lbs[b].lb {
			return lbs[a].lb < lbs[b].lb
		}
		return lbs[a].cell < lbs[b].cell
	})

	// Exact top-k over the surviving cells, ordered by the canonical
	// MatchLess comparator on Dist = sqrt(d2) — the same key DB.Nearest
	// sorts on. Comparing on d2 would be monotone but not identical:
	// sqrt can round two distinct d2 values to the same Dist, where the
	// canonical order falls through to the position/index tie-break.
	type cand struct {
		dist float64
		idx  int32
	}
	top := make([]cand, 0, k)
	worse := func(a, b cand) bool { // true when a orders after b
		pa, pb := s.db.Points[a.idx].Pos, s.db.Points[b.idx].Pos
		return fingerprint.MatchLess(b.dist, a.dist, pb, pa, int(b.idx), int(a.idx))
	}
	scanned := 0
	for _, cl := range lbs {
		if len(top) == k {
			kth := top[k-1].dist
			if math.Sqrt(cl.lb) > kth+boundEps(kth) {
				break
			}
		}
		scanned++
		for _, pi := range s.cellPts[s.cellOff[cl.cell]:s.cellOff[cl.cell+1]] {
			c := cand{dist: math.Sqrt(s.distSqInterned(qid, qr, pi)), idx: pi}
			if len(top) == k && worse(c, top[k-1]) {
				continue
			}
			// Insertion into the small sorted top-k slice.
			pos := len(top)
			for pos > 0 && worse(top[pos-1], c) {
				pos--
			}
			if len(top) < k {
				top = append(top, cand{})
			}
			copy(top[pos+1:], top[pos:])
			top[pos] = c
		}
	}
	s.met.observeCells(opNearest, scanned)

	out := make([]fingerprint.Match, len(top))
	for i, c := range top {
		out[i] = fingerprint.Match{Pos: s.db.Points[c.idx].Pos, Dist: c.dist}
	}
	return out
}

// Distances implements fingerprint.Reader. The output is inherently
// O(N); the win here is constant-factor — the interned flat layout
// replaces per-point string comparisons with integer merges over
// contiguous memory, with identical float summation order.
func (s *Snapshot) Distances(obs rf.Vector) []float64 {
	s.met.lookup(opDistances)
	qid, qr, ok := s.intern(obs)
	if !ok {
		return s.db.Distances(obs)
	}
	out := make([]float64, s.Len())
	for i := range out {
		out[i] = math.Sqrt(s.distSqInterned(qid, qr, int32(i)))
	}
	return out
}

// AppendDistances implements fingerprint.DistanceAppender: the same
// values as Distances in the same order, written into the caller's
// buffer so per-epoch match paths avoid the O(N) allocation.
func (s *Snapshot) AppendDistances(dst []float64, obs rf.Vector) []float64 {
	s.met.lookup(opDistances)
	qid, qr, ok := s.intern(obs)
	if !ok {
		return s.db.AppendDistances(dst, obs)
	}
	for i, n := 0, s.Len(); i < n; i++ {
		dst = append(dst, math.Sqrt(s.distSqInterned(qid, qr, int32(i))))
	}
	return dst
}

// ringBound returns the minimum possible distance from p to any point
// outside the box of cells within Chebyshev radius r-1 of (cx, cy) —
// i.e. to anything in ring r or beyond. Zero when p lies outside that
// box (no pruning possible yet).
func (s *Snapshot) ringBound(p geo.Point, cx, cy, r int) float64 {
	loX := s.gx0 + float64(cx-r+1)*s.cellM
	hiX := s.gx0 + float64(cx+r)*s.cellM
	loY := s.gy0 + float64(cy-r+1)*s.cellM
	hiY := s.gy0 + float64(cy+r)*s.cellM
	if p.X < loX || p.X > hiX || p.Y < loY || p.Y > hiY {
		return 0
	}
	return math.Min(math.Min(p.X-loX, hiX-p.X), math.Min(p.Y-loY, hiY-p.Y))
}

// visitRing calls fn for every in-grid point index in the cells at
// Chebyshev radius r of (cx, cy), and reports how many cells it
// visited.
func (s *Snapshot) visitRing(cx, cy, r int, fn func(pi int32)) int {
	visited := 0
	visit := func(x, y int) {
		if x < 0 || x >= s.nx || y < 0 || y >= s.ny {
			return
		}
		visited++
		c := x + y*s.nx
		for _, pi := range s.cellPts[s.cellOff[c]:s.cellOff[c+1]] {
			fn(pi)
		}
	}
	if r == 0 {
		visit(cx, cy)
		return visited
	}
	for x := cx - r; x <= cx+r; x++ {
		visit(x, cy-r)
		visit(x, cy+r)
	}
	for y := cy - r + 1; y <= cy+r-1; y++ {
		visit(cx-r, y)
		visit(cx+r, y)
	}
	return visited
}

// maxRing returns the largest ring radius that can still contain
// in-grid cells around (cx, cy).
func (s *Snapshot) maxRing(cx, cy int) int {
	m := cx
	if v := s.nx - 1 - cx; v > m {
		m = v
	}
	if cy > m {
		m = cy
	}
	if v := s.ny - 1 - cy; v > m {
		m = v
	}
	return m
}

// VectorAt implements fingerprint.Reader: expanding-ring search for the
// physically nearest fingerprint, with the linear scan's exact
// comparison (strict squared-distance improvement, first index wins on
// ties).
func (s *Snapshot) VectorAt(p geo.Point) (rf.Vector, float64, bool) {
	best, bestD, ok := s.nearestIdx(p)
	if !ok {
		return nil, 0, false
	}
	return s.db.Points[best].Vec, math.Sqrt(bestD), true
}

// NearestIndexAt returns the index of the fingerprint VectorAt(p)
// resolves to — the physically nearest point, first index on ties — or
// false on an empty snapshot. Shared-compute entries cache these
// indices per likelihood-grid cell so every session's cell-center
// lookup lands on the same representative without repeating the ring
// search.
func (s *Snapshot) NearestIndexAt(p geo.Point) (int, bool) {
	best, _, ok := s.nearestIdx(p)
	return int(best), ok
}

// nearestIdx is the shared ring search behind VectorAt and
// NearestIndexAt, returning the winning index and its squared
// distance.
func (s *Snapshot) nearestIdx(p geo.Point) (int32, float64, bool) {
	if s.Len() == 0 {
		return -1, 0, false
	}
	s.met.lookup(opVectorAt)
	cx, cy := s.cellX(p.X), s.cellY(p.Y)
	best := int32(-1)
	bestD := math.Inf(1)
	consider := func(pi int32) {
		d := s.db.Points[pi].Pos.DistSq(p)
		if d < bestD || (d == bestD && pi < best) {
			bestD = d
			best = pi
		}
	}
	cells := 0
	maxR := s.maxRing(cx, cy)
	for r := 0; r <= maxR; r++ {
		if best >= 0 {
			if b := s.ringBound(p, cx, cy, r); b*b > bestD+boundEps(bestD) {
				break
			}
		}
		cells += s.visitRing(cx, cy, r, consider)
	}
	s.met.observeCells(opVectorAt, cells)
	return best, bestD, true
}

// DensityAround implements fingerprint.Reader: ring-limited k-NN whose
// selected distance multiset — and therefore the ascending summation
// the feature averages over — matches the linear implementation
// exactly.
func (s *Snapshot) DensityAround(p geo.Point, neighbours int) float64 {
	if neighbours <= 0 {
		neighbours = 3
	}
	if s.Len() == 0 {
		return 50
	}
	s.met.lookup(opDensity)
	k := neighbours
	if n := s.Len(); n < k {
		k = n
	}
	best := make([]float64, 0, k)
	consider := func(pi int32) {
		d := s.db.Points[pi].Pos.Dist(p)
		if len(best) == k && d >= best[k-1] {
			return
		}
		pos := sort.SearchFloat64s(best, d)
		if len(best) < k {
			best = append(best, 0)
		}
		copy(best[pos+1:], best[pos:])
		best[pos] = d
	}
	cx, cy := s.cellX(p.X), s.cellY(p.Y)
	cells := 0
	maxR := s.maxRing(cx, cy)
	for r := 0; r <= maxR; r++ {
		if len(best) == k {
			kth := best[k-1]
			if s.ringBound(p, cx, cy, r) > kth+boundEps(kth) {
				break
			}
		}
		cells += s.visitRing(cx, cy, r, consider)
	}
	s.met.observeCells(opDensity, cells)

	var sum float64
	for _, d := range best {
		sum += d
	}
	avg := sum / float64(len(best))
	v := math.Max(avg, s.spacing/2)
	return math.Min(v, 20)
}

// memoEntry is one Memo slot: built once, then read-only.
type memoEntry struct {
	once sync.Once
	v    any
}

// Memo returns the value memoized on this snapshot under key, calling
// build exactly once per key (concurrent callers wait for it). Values
// derived from a snapshot that belong to other packages — the HMM
// transition kernel — live here, so every session pinned to the
// snapshot shares one copy and it is freed with the snapshot. Callers
// key with a type of their own package, so keys cannot collide, and
// must not mutate the value. build may call Memo for other keys.
func (s *Snapshot) Memo(key any, build func() any) any {
	s.memoMu.Lock()
	e := s.memo[key]
	if e == nil {
		if s.memo == nil {
			s.memo = make(map[any]*memoEntry)
		}
		e = &memoEntry{}
		s.memo[key] = e
	}
	s.memoMu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

// neighborKey memoizes NeighborLists per radius.
type neighborKey float64

// NeighborLists returns, for every point, the ascending indices of all
// points within maxDistM (inclusive, self included), computed by ring
// search and memoized per radius. The HMM tracker's transition kernel
// is built from them (hmm.Tracker.ShareKernel).
func (s *Snapshot) NeighborLists(maxDistM float64) [][]int32 {
	return s.Memo(neighborKey(maxDistM), func() any { return s.neighborLists(maxDistM) }).([][]int32)
}

func (s *Snapshot) neighborLists(maxDistM float64) [][]int32 {
	n := s.Len()
	nb := make([][]int32, n)
	for j := 0; j < n; j++ {
		p := s.db.Points[j].Pos
		cx, cy := s.cellX(p.X), s.cellY(p.Y)
		var list []int32
		maxR := s.maxRing(cx, cy)
		for r := 0; r <= maxR; r++ {
			if s.ringBound(p, cx, cy, r) > maxDistM+boundEps(maxDistM) {
				break
			}
			s.visitRing(cx, cy, r, func(pi int32) {
				// The exact inclusion test mirrors the tracker's own
				// skip condition (d > maxD → exclude).
				if !(s.db.Points[pi].Pos.Dist(p) > maxDistM) {
					list = append(list, pi)
				}
			})
		}
		sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
		nb[j] = list
	}
	return nb
}

// LikCell identifies one cell of the RSSI likelihood grid the schemes
// memoize over: the grid of edge cellM anchored at the origin, so cell
// (X, Y) covers [X*cellM, (X+1)*cellM) × [Y*cellM, (Y+1)*cellM).
type LikCell struct{ X, Y int32 }

// LikCellFor returns the likelihood-grid cell containing p.
func LikCellFor(p geo.Point, cellM float64) LikCell {
	return LikCell{int32(math.Floor(p.X / cellM)), int32(math.Floor(p.Y / cellM))}
}

// Center returns the cell's center — the canonical position every
// consumer resolves the cell's representative fingerprint through.
func (c LikCell) Center(cellM float64) geo.Point {
	return geo.Pt((float64(c.X)+0.5)*cellM, (float64(c.Y)+0.5)*cellM)
}

// CellLikelihood converts an RSSI-space distance into the canonical
// fingerprint likelihood: a Gaussian over distance with a small floor
// so a bad match never zeroes a particle outright. The fusion scheme's
// private memo and the shared-compute rows both evaluate likelihoods
// through this one expression, which is what makes their outputs
// bit-identical.
func CellLikelihood(d, scale float64) float64 {
	return math.Max(math.Exp(-d*d/(2*scale*scale)), 1e-3)
}
