package hmm_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/hmm"
	"repro/internal/mapstore"
	"repro/internal/scenario"
	"repro/internal/walker"
)

// listSource is a KernelSource over neighbour lists computed by the
// pair rule itself.
type listSource struct {
	lists [][]int32
	memo  map[any]any
}

func newListSource(states []geo.Point, maxD float64) *listSource {
	src := &listSource{lists: make([][]int32, len(states)), memo: map[any]any{}}
	for j := range states {
		for i := range states {
			if !(states[i].Dist(states[j]) > maxD) {
				src.lists[j] = append(src.lists[j], int32(i))
			}
		}
	}
	return src
}

func (s *listSource) NeighborLists(float64) [][]int32 { return s.lists }

func (s *listSource) Memo(key any, build func() any) any {
	if v, ok := s.memo[key]; ok {
		return v
	}
	v := build()
	s.memo[key] = v
	return v
}

// lockstep drives trackers and the dense reference through the same
// updates and state changes, and compares estimate and belief
// Float64bits-exactly after every update.
type lockstep struct {
	t     *testing.T
	names []string
	trs   []*hmm.Tracker
	ref   *hmm.DenseTracker
	step  int
}

func (l *lockstep) update(dists []float64) geo.Point {
	l.t.Helper()
	want := l.ref.Update(dists)
	for k, tr := range l.trs {
		got := tr.Update(dists)
		if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
			l.t.Fatalf("%s, update %d: estimate %v, dense reference %v", l.names[k], l.step, got, want)
		}
		belief, _, _, _ := tr.ExportState()
		for i := range belief {
			if math.Float64bits(belief[i]) != math.Float64bits(l.ref.Belief[i]) {
				l.t.Fatalf("%s, update %d: belief[%d] = %v, dense reference %v", l.names[k], l.step, i, belief[i], l.ref.Belief[i])
			}
		}
	}
	l.step++
	return want
}

// set changes the model parameters of every tracker and the reference.
func (l *lockstep) set(maxStepM, dirWeight, emissionScale float64) {
	l.ref.MaxStepM, l.ref.DirWeight, l.ref.EmissionScale = maxStepM, dirWeight, emissionScale
	for _, tr := range l.trs {
		tr.MaxStepM, tr.DirWeight, tr.EmissionScale = maxStepM, dirWeight, emissionScale
	}
}

// restore installs the same filter state everywhere.
func (l *lockstep) restore(belief []float64, prev, cur geo.Point, init bool) {
	l.ref.RestoreState(belief, prev, cur, init)
	for _, tr := range l.trs {
		if !tr.RestoreState(belief, prev, cur, init) {
			l.t.Fatal("RestoreState refused a belief of the right length")
		}
	}
}

// An event runs in place of update 10 of a walk, making its own
// updates from the walk's scans, and returns how many scans it used;
// the walk then goes on with the rest.
type event func(l *lockstep, s stateSet, scans [][]float64) int

// stateSet is one set of tracker states with a walk's RSSI distances
// over it and the kernel source a serving session would share.
type stateSet struct {
	name   string
	states []geo.Point
	src    hmm.KernelSource
	scans  [][]float64
}

func gridSet() stateSet {
	var states []geo.Point
	for y := 0; y < 24; y++ {
		for x := 0; x < 24; x++ {
			states = append(states, geo.Pt(float64(x)*3, float64(y)*3))
		}
	}
	var scans [][]float64
	for k := 0; k < 40; k++ {
		truth := geo.Pt(2+float64(k)*0.9, 3+float64(k)*0.6)
		d := make([]float64, len(states))
		for i, s := range states {
			d[i] = s.Dist(truth) * 4
		}
		scans = append(scans, d)
	}
	return stateSet{"grid", states, newListSource(states, 18), scans}
}

// campusSet is the campus WiFi map's positions under a tracked walk
// along campus path 1, with the map snapshot as kernel source.
func campusSet(t *testing.T) stateSet {
	place := scenario.Campus()
	assets := scenario.NewAssets(place, 3)
	store := mapstore.New(assets.WiFiDB, mapstore.Config{Name: "wifi"})
	t.Cleanup(store.Close)
	view := store.Snapshot()
	path := place.Paths[0].Line
	wk := walker.New(place.World, path, walker.DefaultConfig(), rand.New(rand.NewSource(5)))
	var scans [][]float64
	for !wk.Done() && len(scans) < 40 {
		snap, _ := wk.Next(true)
		if len(snap.WiFi) > 0 {
			scans = append(scans, fingerprint.AppendDistances(view, nil, snap.WiFi))
		}
	}
	return stateSet{"campus", view.Positions(), view, scans}
}

// TestSparseUpdateMatchesDense holds the push update to the dense pull
// reference, with the tracker's own kernel (New) and a shared one, on a
// grid and on the campus WiFi map, through walks that hit every special
// case of the exactness argument: non-finite and negative distances,
// emission scales that make emissions non-finite, degenerate resets,
// restored beliefs on and around the 1e-12 cut-off, and MaxStepM and
// DirWeight changes mid-walk.
func TestSparseUpdateMatchesDense(t *testing.T) {
	sets := []stateSet{gridSet(), campusSet(t)}
	nextAbove := math.Nextafter(1e-12, 1)

	events := []struct {
		name string
		at   event
	}{
		{"walk", nil},
		{"dist=NaN/far", poke(math.NaN(), far)},
		{"dist=NaN/near", poke(math.NaN(), near)},
		{"dist=+Inf/far", poke(math.Inf(1), far)},
		{"dist=+Inf/near", poke(math.Inf(1), near)},
		{"dist=-Inf/far", poke(math.Inf(-1), far)},
		{"dist=-Inf/near", poke(math.Inf(-1), near)},
		{"dist<0/far", poke(-3, far)},
		// Each scale with the far distance that makes its emission
		// non-finite: -0/0, -Inf/+Inf and exp(1e5/12).
		{"scale=0", scale(0, 0)},
		{"scale=+Inf", scale(math.Inf(1), math.Inf(1))},
		{"scale<0", scale(-12, 1e5)},
		{"maxstep", func(l *lockstep, s stateSet, scans [][]float64) int {
			l.set(4, 0.6, 12)
			for _, d := range scans[:4] {
				l.update(d)
			}
			l.set(9, 0.6, 12)
			for _, d := range scans[4:8] {
				l.update(d)
			}
			l.set(6, 0.6, 12)
			return 8
		}},
		{"dirweight", func(l *lockstep, s stateSet, scans [][]float64) int {
			// Backward moves clamp to a +0 transition.
			l.set(6, 2.5, 12)
			return 0
		}},
		{"teleport", func(l *lockstep, s stateSet, scans [][]float64) int {
			// Zero distance at the state farthest from the belief, 1e9
			// (emission +0) everywhere else: every product is +0, so
			// the update resets to the emission-only belief.
			to := s.states[0]
			for _, p := range s.states {
				if p.Dist(l.ref.Cur) > to.Dist(l.ref.Cur) {
					to = p
				}
			}
			tele := make([]float64, len(s.states))
			for i, p := range s.states {
				if p != to {
					tele[i] = 1e9
				}
			}
			if est := l.update(tele); est != to {
				l.t.Fatalf("teleport estimate %v is not %v: no degenerate reset", est, to)
			}
			return 0
		}},
		{"restore-zero", func(l *lockstep, s stateSet, scans [][]float64) int {
			// No live source: every transition is +0.
			l.restore(make([]float64, len(s.states)), l.ref.Prev, l.ref.Cur, true)
			return 0
		}},
		{"restore-cutoff", restore(func(b []float64, hot []int) {
			for k, i := range hot {
				switch k % 3 {
				case 0:
					b[i] = 1e-12
				case 1:
					b[i] = nextAbove
				case 2:
					b[i] = math.Copysign(0, -1)
				}
			}
		})},
		{"restore-NaN", restore(func(b []float64, hot []int) {
			b[hot[len(hot)/2]] = math.NaN()
			b[hot[0]] = 1e-12
			b[hot[1]] = nextAbove
			b[hot[2]] = math.Copysign(0, -1)
		})},
	}

	for _, s := range sets {
		for _, ev := range events {
			t.Run(s.name+"/"+ev.name, func(t *testing.T) {
				shared := hmm.NewShared(s.states)
				shared.ShareKernel(s.src)
				l := &lockstep{
					t:     t,
					names: []string{"own kernel", "shared kernel"},
					trs:   []*hmm.Tracker{hmm.New(s.states), shared},
					ref:   hmm.NewDense(s.states),
				}
				for k := 0; k < len(s.scans); k++ {
					if k == 10 && ev.at != nil {
						k += ev.at(l, s, s.scans[k:])
					}
					l.update(s.scans[k])
				}
			})
		}
	}
}

// far picks the states more than 60 m from the estimate, which no live
// source reaches; near picks the most likely state.
func far(l *lockstep, s stateSet, dists []float64) []int {
	var out []int
	for i, p := range s.states {
		if p.Dist(l.ref.Cur) > 60 {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		l.t.Fatal("no state is far from the estimate")
	}
	return out
}

func near(l *lockstep, s stateSet, dists []float64) []int {
	best := 0
	for i := range dists {
		if dists[i] < dists[best] {
			best = i
		}
	}
	return []int{best}
}

// poke returns an event that sets the distances of the states pick
// chooses at its start to v for four updates.
func poke(v float64, pick func(*lockstep, stateSet, []float64) []int) event {
	return func(l *lockstep, s stateSet, scans [][]float64) int {
		picked := pick(l, s, scans[0])
		for _, d := range scans[:4] {
			d = append([]float64(nil), d...)
			for _, i := range picked {
				d[i] = v
			}
			l.update(d)
		}
		return 4
	}
}

// scale returns an event that sets EmissionScale to v for three
// updates, with the far states' distances at d.
func scale(v, d float64) event {
	return func(l *lockstep, s stateSet, scans [][]float64) int {
		l.set(6, 0.6, v)
		picked := far(l, s, scans[0])
		for _, scan := range scans[:3] {
			scan = append([]float64(nil), scan...)
			for _, i := range picked {
				scan[i] = d
			}
			l.update(scan)
		}
		l.set(6, 0.6, 12)
		return 3
	}
}

// restore returns an event that restores a copy of the current belief
// edited by edit, given the twelve states holding the most mass, most
// first.
func restore(edit func(b []float64, hot []int)) event {
	return func(l *lockstep, s stateSet, scans [][]float64) int {
		b := append([]float64(nil), l.ref.Belief...)
		var hot []int
		for len(hot) < 12 {
			best := -1
			for i, v := range b {
				if !slices.Contains(hot, i) && (best < 0 || v > b[best]) {
					best = i
				}
			}
			hot = append(hot, best)
		}
		edit(b, hot)
		l.restore(b, l.ref.Prev, l.ref.Cur, true)
		return 0
	}
}
