package mapstore

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/rf"
)

// synthDB builds a deterministic synthetic fingerprint database: n
// points jittered off a regular grid, each hearing a random subset of
// nTx transmitters with distance-dependent RSSI. It exercises all the
// index's edge conditions: duplicate positions, ties, sparse vectors.
func synthDB(n, nTx int, seed int64) *fingerprint.DB {
	rnd := rand.New(rand.NewSource(seed))
	spacing := 3.0
	side := int(math.Ceil(math.Sqrt(float64(n))))
	type tx struct {
		id  string
		pos geo.Point
		p0  float64
	}
	txs := make([]tx, nTx)
	extent := float64(side) * spacing
	for t := range txs {
		txs[t] = tx{
			id:  fmt.Sprintf("ap-%03d", t),
			pos: geo.Pt(rnd.Float64()*extent, rnd.Float64()*extent),
			p0:  -30 - rnd.Float64()*10,
		}
	}
	db := &fingerprint.DB{SpacingM: spacing, Floor: -98}
	for i := 0; i < n; i++ {
		gx, gy := i%side, i/side
		p := geo.Pt(
			(float64(gx)+0.5)*spacing+rnd.NormFloat64()*0.3,
			(float64(gy)+0.5)*spacing+rnd.NormFloat64()*0.3,
		)
		var vec rf.Vector
		for _, t := range txs {
			d := t.pos.Dist(p)
			rssi := t.p0 - 20*math.Log10(math.Max(d, 1)) + rnd.NormFloat64()*2
			if rssi < -90 { // audibility cutoff keeps vectors sparse
				continue
			}
			vec = append(vec, rf.Obs{ID: t.id, RSSI: rssi})
		}
		if len(vec) < 2 {
			// Force the minimum the survey guarantees.
			vec = rf.Vector{
				{ID: txs[0].id, RSSI: -89},
				{ID: txs[1].id, RSSI: -89.5},
			}
		}
		sort.Slice(vec, func(a, b int) bool { return vec[a].ID < vec[b].ID })
		db.Points = append(db.Points, fingerprint.Fingerprint{Pos: p, Vec: vec})
	}
	// A few exact duplicates and co-located points stress tie-breaking.
	if n >= 4 {
		db.Points[n-1] = db.Points[0]
		db.Points[n-2].Pos = db.Points[1].Pos
	}
	return db
}

// randObs draws a plausible observation vector near a random stored
// point (sharing most of its transmitters, with noise).
func randObs(db *fingerprint.DB, rnd *rand.Rand) rf.Vector {
	base := db.Points[rnd.Intn(len(db.Points))].Vec
	var obs rf.Vector
	for _, o := range base {
		if rnd.Float64() < 0.15 {
			continue // drop some transmitters
		}
		obs = append(obs, rf.Obs{ID: o.ID, RSSI: o.RSSI + rnd.NormFloat64()*3})
	}
	if len(obs) == 0 {
		obs = append(rf.Vector(nil), base...)
	}
	return obs
}

func eqMatches(a, b []fingerprint.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Pos != b[i].Pos || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// TestSnapshotEquivalence is the hard requirement of the subsystem:
// every indexed query must return bit-identical results to the linear
// scan — same matches, same order, same floats.
func TestSnapshotEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, nTx int
		seed   int64
	}{
		{"small", 40, 12, 1},
		{"medium", 400, 40, 2},
		{"large", 1500, 80, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := synthDB(tc.n, tc.nTx, tc.seed)
			snap := Build(db, 1, 0, nil)
			rnd := rand.New(rand.NewSource(tc.seed + 100))
			extent := math.Sqrt(float64(tc.n)) * db.SpacingM

			for trial := 0; trial < 200; trial++ {
				obs := randObs(db, rnd)
				if trial%7 == 0 {
					// Unknown transmitters must take the exact fallback.
					obs = append(obs, rf.Obs{ID: "zz-unknown", RSSI: -60})
					sort.Slice(obs, func(a, b int) bool { return obs[a].ID < obs[b].ID })
				}
				k := 1 + rnd.Intn(6)
				if got, want := snap.Nearest(obs, k), db.Nearest(obs, k); !eqMatches(got, want) {
					t.Fatalf("trial %d: Nearest(k=%d) diverged:\n got %v\nwant %v", trial, k, got, want)
				}
				gd, wd := snap.Distances(obs), db.Distances(obs)
				if len(gd) != len(wd) {
					t.Fatalf("trial %d: Distances length %d != %d", trial, len(gd), len(wd))
				}
				for i := range gd {
					if gd[i] != wd[i] {
						t.Fatalf("trial %d: Distances[%d] = %v != %v", trial, i, gd[i], wd[i])
					}
				}

				// Query points both inside and well outside the grid.
				p := geo.Pt(rnd.Float64()*extent*1.4-0.2*extent, rnd.Float64()*extent*1.4-0.2*extent)
				gv, gdist, gok := snap.VectorAt(p)
				wv, wdist, wok := db.VectorAt(p)
				if gok != wok || gdist != wdist {
					t.Fatalf("trial %d: VectorAt(%v) = (%v,%v) want (%v,%v)", trial, p, gdist, gok, wdist, wok)
				}
				if len(gv) != len(wv) {
					t.Fatalf("trial %d: VectorAt vectors differ in length", trial)
				}
				for i := range gv {
					if gv[i] != wv[i] {
						t.Fatalf("trial %d: VectorAt vec[%d] = %v != %v", trial, i, gv[i], wv[i])
					}
				}

				nb := 3
				if trial%5 == 0 {
					nb = 1 + rnd.Intn(8)
				}
				if got, want := snap.DensityAround(p, nb), db.DensityAround(p, nb); got != want {
					t.Fatalf("trial %d: DensityAround(%v,%d) = %v != %v", trial, p, nb, got, want)
				}
			}
		})
	}
}

// TestSnapshotDuplicateIDBoxes reproduces the pruning hazard of a
// duplicated transmitter ID within one stored vector: the per-cell
// signal boxes must count distinct points per transmitter, not vector
// entries. Point 0's duplicated "a" would otherwise satisfy the
// cell-population count by itself, the floor extension for point 1
// (which does not hear "a") would be skipped, and Nearest would prune
// the cell containing the true match.
func TestSnapshotDuplicateIDBoxes(t *testing.T) {
	db := &fingerprint.DB{SpacingM: 3, Floor: -98, Points: []fingerprint.Fingerprint{
		{Pos: geo.Pt(1, 1), Vec: rf.Vector{{ID: "a", RSSI: -40}, {ID: "a", RSSI: -40}, {ID: "b", RSSI: -50}}},
		{Pos: geo.Pt(2, 2), Vec: rf.Vector{{ID: "b", RSSI: -52}}},
		{Pos: geo.Pt(20, 1), Vec: rf.Vector{{ID: "a", RSSI: -88}, {ID: "b", RSSI: -55}}},
	}}
	snap := Build(db, 1, 4, nil) // cellM=4: points 0 and 1 share a cell
	// Near the floor on "a", close to point 1 on "b": the true nearest
	// is point 1, which lives behind the duplicate-inflated box.
	obs := rf.Vector{{ID: "a", RSSI: -97}, {ID: "b", RSSI: -52}}
	for k := 1; k <= 3; k++ {
		if got, want := snap.Nearest(obs, k), db.Nearest(obs, k); !eqMatches(got, want) {
			t.Fatalf("k=%d: Nearest with duplicate-ID vector diverged:\n got %v\nwant %v", k, got, want)
		}
	}
	gd, wd := snap.Distances(obs), db.Distances(obs)
	for i := range gd {
		if gd[i] != wd[i] {
			t.Fatalf("Distances[%d] = %v != %v", i, gd[i], wd[i])
		}
	}
}

// TestSnapshotBuildExtremeExtent is the defense-in-depth behind
// Store.Submit's position validation: Build handed a database with an
// absurd or non-finite extent must coarsen to a capped grid instead of
// allocating (or panicking on) nx*ny cell offsets, and still answer
// queries bit-identically to the linear scan.
func TestSnapshotBuildExtremeExtent(t *testing.T) {
	vecA := rf.Vector{{ID: "a", RSSI: -40}, {ID: "b", RSSI: -60}}
	vecB := rf.Vector{{ID: "a", RSSI: -70}, {ID: "b", RSSI: -45}}
	db := &fingerprint.DB{SpacingM: 3, Floor: -98, Points: []fingerprint.Fingerprint{
		{Pos: geo.Pt(0, 0), Vec: vecA},
		{Pos: geo.Pt(3, 4), Vec: vecB},
		{Pos: geo.Pt(1e12, 2e12), Vec: vecA},
	}}
	snap := Build(db, 1, 0, nil)
	nx, ny, _ := snap.GridStats()
	if nc := nx * ny; nc > maxGridCells || nc <= 0 {
		t.Fatalf("grid not capped: %dx%d = %d cells", nx, ny, nc)
	}
	obs := rf.Vector{{ID: "a", RSSI: -50}, {ID: "b", RSSI: -55}}
	if got, want := snap.Nearest(obs, 2), db.Nearest(obs, 2); !eqMatches(got, want) {
		t.Fatalf("Nearest on capped grid diverged: %v vs %v", got, want)
	}
	p := geo.Pt(2, 2)
	_, gdist, gok := snap.VectorAt(p)
	_, wdist, wok := db.VectorAt(p)
	if gok != wok || gdist != wdist {
		t.Fatalf("VectorAt on capped grid = (%v,%v), want (%v,%v)", gdist, gok, wdist, wok)
	}
	if got, want := snap.DensityAround(p, 2), db.DensityAround(p, 2); got != want {
		t.Fatalf("DensityAround on capped grid = %v, want %v", got, want)
	}

	// Non-finite coordinates (only reachable by building directly from
	// a corrupt database) must not panic either.
	bad := &fingerprint.DB{SpacingM: 3, Floor: -98, Points: []fingerprint.Fingerprint{
		{Pos: geo.Pt(0, 0), Vec: vecA},
		{Pos: geo.Pt(math.NaN(), math.Inf(1)), Vec: vecB},
	}}
	got := Build(bad, 1, 0, nil).Nearest(obs, 1)
	if len(got) != 1 {
		t.Fatalf("Nearest over non-finite positions = %v", got)
	}
}

// TestSnapshotNeighborLists checks the spatial-index neighbour lists
// against the O(N²) definition the HMM tracker uses.
func TestSnapshotNeighborLists(t *testing.T) {
	db := synthDB(300, 30, 7)
	snap := Build(db, 1, 0, nil)
	maxD := 18.0 // MaxStepM * 3 at the tracker's default
	lists := snap.NeighborLists(maxD)
	if len(lists) != len(db.Points) {
		t.Fatalf("got %d lists for %d points", len(lists), len(db.Points))
	}
	for j := range db.Points {
		var want []int32
		for i := range db.Points {
			if db.Points[i].Pos.Dist(db.Points[j].Pos) > maxD {
				continue
			}
			want = append(want, int32(i))
		}
		got := lists[j]
		if len(got) != len(want) {
			t.Fatalf("point %d: %d neighbours, want %d", j, len(got), len(want))
		}
		for x := range got {
			if got[x] != want[x] {
				t.Fatalf("point %d: neighbour list %v != %v", j, got, want)
			}
		}
	}
	// Cached second call returns the same data.
	again := snap.NeighborLists(maxD)
	if &again[0][0] != &lists[0][0] {
		t.Fatal("NeighborLists did not serve the cached lists")
	}
}

// TestSnapshotMemo checks Memo builds each key once under concurrent
// callers, keeps keys of different types apart, and lets a build call
// Memo for another key (the HMM kernel builds from NeighborLists).
func TestSnapshotMemo(t *testing.T) {
	snap := Build(synthDB(50, 8, 3), 1, 0, nil)
	type keyA float64
	type keyB float64
	var builds atomic.Int32
	var wg sync.WaitGroup
	got := make([]any, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = snap.Memo(keyA(18), func() any {
				builds.Add(1)
				return &snap.NeighborLists(18)[0]
			})
		}(g)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("Memo built %d times, want 1", builds.Load())
	}
	for _, v := range got[1:] {
		if v != got[0] {
			t.Fatal("concurrent callers saw different values")
		}
	}
	if v := snap.Memo(keyB(18), func() any { return "b" }); v != "b" {
		t.Fatalf("keys of different types collided: got %v", v)
	}
}

// TestSnapshotEmptyAndDegenerate covers empty maps and single points.
func TestSnapshotEmptyAndDegenerate(t *testing.T) {
	empty := Build(&fingerprint.DB{SpacingM: 3, Floor: -100}, 1, 0, nil)
	if got := empty.Nearest(rf.Vector{{ID: "a", RSSI: -50}}, 3); got != nil {
		t.Fatalf("empty Nearest = %v", got)
	}
	if _, _, ok := empty.VectorAt(geo.Pt(0, 0)); ok {
		t.Fatal("empty VectorAt ok")
	}
	if got := empty.DensityAround(geo.Pt(0, 0), 3); got != 50 {
		t.Fatalf("empty DensityAround = %v, want 50", got)
	}
	if got := empty.Distances(rf.Vector{{ID: "a", RSSI: -50}}); len(got) != 0 {
		t.Fatalf("empty Distances = %v", got)
	}

	one := &fingerprint.DB{SpacingM: 3, Floor: -100, Points: []fingerprint.Fingerprint{{
		Pos: geo.Pt(5, 5),
		Vec: rf.Vector{{ID: "a", RSSI: -40}, {ID: "b", RSSI: -60}},
	}}}
	snap := Build(one, 1, 0, nil)
	obs := rf.Vector{{ID: "a", RSSI: -42}}
	if got, want := snap.Nearest(obs, 3), one.Nearest(obs, 3); !eqMatches(got, want) {
		t.Fatalf("single-point Nearest %v != %v", got, want)
	}
	if got, want := snap.DensityAround(geo.Pt(100, 100), 3), one.DensityAround(geo.Pt(100, 100), 3); got != want {
		t.Fatalf("single-point DensityAround %v != %v", got, want)
	}
}

// TestSnapshotReaderInterface pins the static contract.
func TestSnapshotReaderInterface(t *testing.T) {
	var _ fingerprint.Reader = (*Snapshot)(nil)
	var _ interface {
		NeighborLists(float64) [][]int32
		Memo(any, func() any) any
	} = (*Snapshot)(nil) // hmm.KernelSource, which mapstore does not import
	var _ fingerprint.Map = (*Store)(nil)

	db := synthDB(20, 8, 9)
	snap := Build(db, 42, 0, nil)
	if snap.Version() != 42 {
		t.Fatalf("Version = %d", snap.Version())
	}
	if snap.Len() != db.Len() || snap.FloorDB() != db.FloorDB() || snap.Spacing() != db.Spacing() {
		t.Fatal("snapshot metadata does not mirror db")
	}
	for i := 0; i < snap.Len(); i++ {
		if snap.At(i).Pos != db.At(i).Pos {
			t.Fatalf("At(%d) mismatch", i)
		}
	}
	sp, dp := snap.Positions(), db.Positions()
	for i := range sp {
		if sp[i] != dp[i] {
			t.Fatalf("Positions[%d] mismatch", i)
		}
	}
}
