package schemes_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/rf"
	"repro/internal/scenario"
	"repro/internal/schemes"
	"repro/internal/sensing"
	"repro/internal/statecodec"
	"repro/internal/walker"
)

// listTracker is hmm.Tracker's update as it was before transition
// kernels: it walks the snapshot's neighbour lists and recomputes each
// pair's distance, step Gaussian and move length on every update. The
// kernel test below holds the tracker to it bit for bit.
type listTracker struct {
	states    []geo.Point
	nb        [][]int32
	belief    []float64
	prev, cur geo.Point
	init      bool
}

const (
	refMaxStepM      = 6
	refDirWeight     = 0.6
	refEmissionScale = 12
)

func newListTracker(states []geo.Point, nb [][]int32) *listTracker {
	t := &listTracker{states: states, nb: nb, belief: make([]float64, len(states))}
	for i := range t.belief {
		t.belief[i] = 1 / float64(len(states))
	}
	return t
}

func (t *listTracker) transWeight(si, sj geo.Point, d float64, dir geo.Point, dirNorm float64) float64 {
	g := math.Exp(-d * d / (2 * refMaxStepM * refMaxStepM))
	if dirNorm > 0.5 {
		move := sj.Sub(si)
		if mn := move.Norm(); mn > 0.3 {
			cos := move.Dot(dir) / (mn * dirNorm)
			g *= 1 + refDirWeight*cos
			if g < 0 {
				g = 0
			}
		}
	}
	return g
}

func (t *listTracker) update(rssiDists []float64) {
	next := make([]float64, len(t.states))
	dir := t.cur.Sub(t.prev)
	dirNorm := dir.Norm()
	for j, sj := range t.states {
		var trans float64
		if !t.init {
			trans = 1
		} else {
			for _, i32 := range t.nb[j] {
				i := int(i32)
				if t.belief[i] <= 1e-12 {
					continue
				}
				si := t.states[i]
				d := si.Dist(sj)
				if d > refMaxStepM*3 {
					continue
				}
				trans += t.belief[i] * t.transWeight(si, sj, d, dir, dirNorm)
			}
		}
		next[j] = trans * math.Exp(-rssiDists[j]/refEmissionScale)
	}
	var total float64
	for _, v := range next {
		total += v
	}
	if total <= 0 || math.IsNaN(total) {
		total = 0
		for j := range next {
			next[j] = math.Exp(-rssiDists[j] / refEmissionScale)
			total += next[j]
		}
		if total <= 0 {
			return
		}
	}
	for j := range next {
		next[j] /= total
	}
	t.belief = next
	var x, y float64
	for j, s := range t.states {
		x += s.X * next[j]
		y += s.Y * next[j]
	}
	t.prev, t.cur = t.cur, geo.Pt(x, y)
	t.init = true
}

// exportedBelief decodes the tracker belief from a Fingerprinting
// state blob: [u64 ver][bool init][4 f64][u32 n][n f64]...
func exportedBelief(t *testing.T, s *schemes.Fingerprinting) []float64 {
	t.Helper()
	blob, err := s.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := statecodec.NewReader(blob)
	r.U64()
	r.Bool()
	for i := 0; i < 4; i++ {
		r.F64()
	}
	belief := make([]float64, r.U32())
	for i := range belief {
		belief[i] = r.F64()
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return belief
}

// neighborLister is the map snapshot's neighbour-list accessor.
type neighborLister interface {
	NeighborLists(maxDistM float64) [][]int32
}

// scanLists computes neighbour lists over a plain database's positions
// by the transition model's own pair rule.
func scanLists(pos []geo.Point, maxD float64) [][]int32 {
	nb := make([][]int32, len(pos))
	for j := range pos {
		for i := range pos {
			if !(pos[i].Dist(pos[j]) > maxD) {
				nb[j] = append(nb[j], int32(i))
			}
		}
	}
	return nb
}

// TestTrackerKernelMatchesListPath runs WiFi and cellular
// fingerprinting along a whole campus path and checks the tracker's
// belief after every epoch against the list-only update
// Float64bits-exactly. Over a shared store (the serving path) a survey
// compaction swaps the snapshot mid-walk; over a private database (the
// training path) the tracker builds its own kernel. Mid-walk, every
// case also moves the session into a fresh scheme through
// AppendState/RestoreState, as a migration does.
func TestTrackerKernelMatchesListPath(t *testing.T) {
	place := scenario.Campus()
	assets := scenario.NewAssets(place, 3)
	cases := []struct {
		name    string
		db      *fingerprint.DB
		private bool
		mk      func(fingerprint.Map) *schemes.Fingerprinting
		obs     func(*sensing.Snapshot) rf.Vector
	}{
		{"wifi", assets.WiFiDB, false, schemes.NewWiFi, func(s *sensing.Snapshot) rf.Vector { return s.WiFi }},
		{"cellular", assets.CellDB, false, schemes.NewCellular, func(s *sensing.Snapshot) rf.Vector { return s.Cell }},
		{"wifi-private", assets.WiFiDB, true, schemes.NewWiFi, func(s *sensing.Snapshot) rf.Vector { return s.WiFi }},
		{"cellular-private", assets.CellDB, true, schemes.NewCellular, func(s *sensing.Snapshot) rf.Vector { return s.Cell }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m fingerprint.Map = tc.db
			var store *mapstore.Store
			wantSwaps := 1
			if !tc.private {
				store = mapstore.New(tc.db, mapstore.Config{Name: tc.name, RebuildBatch: 1 << 30})
				defer store.Close()
				m = store
				wantSwaps = 2
			}
			path := place.Paths[0].Line
			wk := walker.New(place.World, path, walker.DefaultConfig(), rand.New(rand.NewSource(5)))
			start, _ := path.At(0)
			s := tc.mk(m)
			s.Reset(start)

			var ref *listTracker
			var refVer uint64
			updates, swaps, moves := 0, 0, 0
			for epoch := 0; !wk.Done(); epoch++ {
				snap, truth := wk.Next(true)
				obs := tc.obs(snap)
				if epoch == 60 {
					// Migrate: ship the scheme's state into a fresh one
					// over the same map, which carries on the walk.
					blob, err := s.AppendState(nil)
					if err != nil {
						t.Fatal(err)
					}
					s = tc.mk(m)
					if err := s.RestoreState(blob); err != nil {
						t.Fatal(err)
					}
					moves++
				}
				if epoch == 120 && store != nil {
					// Survey new points along the walk and compact: the
					// next epoch runs on a bigger snapshot.
					for k := 0; k < 6 && len(obs) >= 2; k++ {
						p := truth.Add(geo.Pt(0.7*float64(k), 1.1))
						if err := store.Submit(fingerprint.Fingerprint{Pos: p, Vec: obs}); err != nil {
							t.Fatal(err)
						}
					}
					store.Rebuild()
				}
				if !s.Estimate(snap).OK {
					continue // the tracker did not update
				}
				view := m.View()
				if ref == nil || view.Version() != refVer {
					var nb [][]int32
					if nl, ok := view.(neighborLister); ok {
						nb = nl.NeighborLists(refMaxStepM * 3)
					} else {
						nb = scanLists(view.Positions(), refMaxStepM*3)
					}
					ref = newListTracker(view.Positions(), nb)
					refVer = view.Version()
					swaps++
				}
				ref.update(fingerprint.AppendDistances(view, nil, obs))
				updates++
				got := exportedBelief(t, s)
				if len(got) != len(ref.belief) {
					t.Fatalf("epoch %d: belief over %d states, reference %d", epoch, len(got), len(ref.belief))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(ref.belief[i]) {
						t.Fatalf("epoch %d: belief[%d] = %v, list path %v", epoch, i, got[i], ref.belief[i])
					}
				}
			}
			if updates < 150 || swaps != wantSwaps || moves != 1 {
				t.Fatalf("walk made %d updates over %d snapshots with %d moves; want a long walk across %d snapshots and one move",
					updates, swaps, moves, wantSwaps)
			}
		})
	}
}
