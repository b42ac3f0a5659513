package sharedcompute_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/rf"
	"repro/internal/sharedcompute"
)

// testDB builds a small gridded radio map with synthetic path-loss
// vectors, mirroring the mapstore test fixture.
func testDB(n, nTx int, seed int64) *fingerprint.DB {
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
			if rssi < -90 {
				continue
			}
			vec = append(vec, rf.Obs{ID: t.id, RSSI: rssi})
		}
		if len(vec) < 2 {
			vec = rf.Vector{
				{ID: txs[0].id, RSSI: -89},
				{ID: txs[1].id, RSSI: -89.5},
			}
		}
		db.Points = append(db.Points, fingerprint.Fingerprint{Pos: p, Vec: vec})
	}
	return db
}

func randObs(db *fingerprint.DB, rnd *rand.Rand) rf.Vector {
	base := db.Points[rnd.Intn(len(db.Points))].Vec
	obs := make(rf.Vector, 0, len(base))
	for _, o := range base {
		obs = append(obs, rf.Obs{ID: o.ID, RSSI: o.RSSI + rnd.NormFloat64()*3})
	}
	return obs
}

// TestRetainReleaseEvict pins the refcounted lifecycle: entries are
// built on first retain, shared on re-retain, and evicted — invisible
// to Get — once the last pin is released.
func TestRetainReleaseEvict(t *testing.T) {
	db := testDB(64, 6, 1)
	snap := mapstore.Build(db, 7, 0, nil)
	c := sharedcompute.NewCache(nil)

	e1 := c.Retain(snap, "wifi")
	if e1 == nil {
		t.Fatal("Retain returned nil entry")
	}
	e2 := c.Retain(snap, "wifi")
	if e2 != e1 {
		t.Fatal("second Retain built a new entry for the same snapshot")
	}
	if got := c.Get(snap); got != e1 {
		t.Fatalf("Get = %p, want %p", got, e1)
	}
	st := c.Stats()
	if st.Built != 1 || st.Resident != 1 || st.Evicted != 0 {
		t.Fatalf("after double retain: %+v", st)
	}
	if v := st.ResidentVersions["wifi"]; v != 7 {
		t.Fatalf("ResidentVersions[wifi] = %d, want 7", v)
	}

	c.Release(e1)
	if c.Get(snap) == nil {
		t.Fatal("entry evicted while still pinned")
	}
	c.Release(e2)
	if c.Get(snap) != nil {
		t.Fatal("entry survived its last release")
	}
	st = c.Stats()
	if st.Evicted != 1 || st.Resident != 0 {
		t.Fatalf("after final release: %+v", st)
	}

	// A fresh retain of the same snapshot rebuilds from scratch.
	e3 := c.Retain(snap, "wifi")
	if e3 == nil || c.Stats().Built != 2 {
		t.Fatalf("re-retain did not rebuild: %+v", c.Stats())
	}
	c.Release(e3)

	// Nil-safety contract used throughout the offload layer.
	var nilCache *sharedcompute.Cache
	if nilCache.Retain(snap, "wifi") != nil || nilCache.Get(snap) != nil {
		t.Fatal("nil cache must be inert")
	}
	nilCache.Release(nil)
	if c.Retain(nil, "wifi") != nil {
		t.Fatal("nil snapshot must not be retained")
	}
}

// TestRepVecMatchesVectorAt pins the canonical-representative
// contract: the entry's cached per-cell representative must be exactly
// the fingerprint VectorAt resolves at the cell center, so shared and
// private likelihoods see the same vector bit for bit.
func TestRepVecMatchesVectorAt(t *testing.T) {
	db := testDB(100, 8, 2)
	snap := mapstore.Build(db, 1, 0, nil)
	c := sharedcompute.NewCache(nil)
	e := c.Retain(snap, "wifi")
	defer c.Release(e)

	cellM := e.CellM()
	if want := sharedcompute.LikCellM(snap); cellM != want {
		t.Fatalf("CellM = %v, want LikCellM = %v", cellM, want)
	}
	for x := int32(-2); x < 25; x += 3 {
		for y := int32(-2); y < 25; y += 3 {
			cell := sharedcompute.Cell{X: x, Y: y}
			vec, ok := e.RepVec(cell)
			wantVec, _, wantOK := snap.VectorAt(cell.Center(cellM))
			if ok != wantOK {
				t.Fatalf("cell %v: ok=%v, VectorAt ok=%v", cell, ok, wantOK)
			}
			if !ok {
				continue
			}
			if len(vec) != len(wantVec) {
				t.Fatalf("cell %v: vec len %d != %d", cell, len(vec), len(wantVec))
			}
			for i := range vec {
				if vec[i] != wantVec[i] {
					t.Fatalf("cell %v obs %d: %+v != %+v", cell, i, vec[i], wantVec[i])
				}
			}
		}
	}
}

// TestRowLookupPublish pins row semantics and the hit/miss counters.
func TestRowLookupPublish(t *testing.T) {
	db := testDB(64, 6, 4)
	snap := mapstore.Build(db, 1, 0, nil)
	c := sharedcompute.NewCache(nil)
	e := c.Retain(snap, "wifi")
	defer c.Release(e)

	obs := db.Points[0].Vec
	key := fingerprint.ObsKey(obs)
	row := e.Row(15, []byte(key))
	if again := e.Row(15, []byte(key)); again != row {
		t.Fatal("same (scale, obs) must map to one shared row")
	}
	if other := e.Row(12, []byte(key)); other == row {
		t.Fatal("different scales must not share a row")
	}

	cell := sharedcompute.Cell{X: 1, Y: 2}
	if _, ok := row.Lookup(cell); ok {
		t.Fatal("lookup hit before any publish")
	}
	row.Publish(cell, 0.25)
	if v, ok := row.Lookup(cell); !ok || v != 0.25 {
		t.Fatalf("after publish: v=%v ok=%v", v, ok)
	}
	st := c.Stats()
	if st.LikHits != 1 || st.LikMisses != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestConcurrentSwapHammer races readers (Get, Row, Lookup, Publish,
// Positions, RepVec) against a writer that keeps swapping which
// snapshot is pinned — the shape of sessions stepping while compaction
// rebuilds land. Run under -race this pins the lock-free index and
// the copy-on-write swap discipline.
func TestConcurrentSwapHammer(t *testing.T) {
	db := testDB(80, 6, 6)
	snaps := []*mapstore.Snapshot{
		mapstore.Build(db, 1, 0, nil),
		mapstore.Build(db, 2, 0, nil),
		mapstore.Build(db, 3, 0, nil),
	}
	c := sharedcompute.NewCache(nil)
	obs := db.Points[3].Vec
	key := fingerprint.ObsKey(obs)

	var readers, swapper sync.WaitGroup
	stop := make(chan struct{})
	// Swapper: retain next, release previous, round-robin until the
	// readers are done.
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		cur := c.Retain(snaps[0], "wifi")
		for i := 1; ; i++ {
			select {
			case <-stop:
				c.Release(cur)
				return
			default:
			}
			next := c.Retain(snaps[i%len(snaps)], "wifi")
			c.Release(cur)
			cur = next
		}
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 3000; i++ {
				snap := snaps[(g+i)%len(snaps)]
				e := c.Get(snap)
				if e == nil {
					continue // unpinned at this instant: private fallback
				}
				row := e.Row(15, []byte(key))
				cell := sharedcompute.Cell{X: int32(i % 7), Y: int32(g)}
				if v, ok := row.Lookup(cell); ok {
					var want float64 = 1.0
					if vec, okRep := e.RepVec(cell); okRep {
						want = sharedcompute.Likelihood(rf.Distance(obs, vec, db.Floor), 15)
					}
					if math.Float64bits(v) != math.Float64bits(want) {
						t.Errorf("cell %v: shared %v != canonical %v", cell, v, want)
						return
					}
				} else {
					var v float64 = 1.0
					if vec, okRep := e.RepVec(cell); okRep {
						v = sharedcompute.Likelihood(rf.Distance(obs, vec, db.Floor), 15)
					}
					row.Publish(cell, v)
				}
				e.CountTracker()
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	swapper.Wait()

	if st := c.Stats(); st.Resident != 0 {
		t.Fatalf("swapper exit left %d resident entries", st.Resident)
	}
}
