package hmm

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
)

// lineStates builds states on a 1-D line at 3 m pitch.
func lineStates(n int) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Pt(float64(i)*3, 0)
	}
	return out
}

// distsFor builds emission distances favouring state idx.
func distsFor(states []geo.Point, truth geo.Point) []float64 {
	out := make([]float64, len(states))
	for i, s := range states {
		out[i] = s.Dist(truth) * 4 // RSSI distance grows with physical distance
	}
	return out
}

func TestTrackerConvergesToObservation(t *testing.T) {
	states := lineStates(20)
	tr := New(states)
	truth := geo.Pt(30, 0)
	var est geo.Point
	for i := 0; i < 5; i++ {
		est = tr.Update(distsFor(states, truth))
	}
	if est.Dist(truth) > 4 {
		t.Errorf("estimate %v far from truth %v", est, truth)
	}
}

func TestTrackerFollowsMovement(t *testing.T) {
	states := lineStates(30)
	tr := New(states)
	// Walk from x=0 to x=60 at 1.5 m per update.
	var worst float64
	for step := 0; step <= 40; step++ {
		truth := geo.Pt(float64(step)*1.5, 0)
		est := tr.Update(distsFor(states, truth))
		if step > 3 {
			if e := est.Dist(truth); e > worst {
				worst = e
			}
		}
	}
	if worst > 5 {
		t.Errorf("worst tracking error %v too large", worst)
	}
}

func TestTrackerRejectsTeleport(t *testing.T) {
	states := lineStates(40)
	tr := New(states)
	// Establish position at x=6.
	for i := 0; i < 6; i++ {
		tr.Update(distsFor(states, geo.Pt(6, 0)))
	}
	// One glitchy observation at x=90 should not teleport the belief
	// all the way (bounded-speed transition).
	est := tr.Update(distsFor(states, geo.Pt(90, 0)))
	if est.X > 50 {
		t.Errorf("teleported to %v", est)
	}
}

func TestTrackerSecondOrderMomentum(t *testing.T) {
	states := lineStates(40)
	tr := New(states)
	// Walk right for a while.
	for step := 0; step < 12; step++ {
		tr.Update(distsFor(states, geo.Pt(float64(step)*2, 0)))
	}
	before := tr.Predicted()
	// Ambiguous observation equally near x=before±6: momentum should
	// keep the estimate from jumping backward.
	amb := make([]float64, len(states))
	for i, s := range states {
		d1 := math.Abs(s.X - (before.X - 6))
		d2 := math.Abs(s.X - (before.X + 6))
		amb[i] = math.Min(d1, d2) * 4
	}
	est := tr.Update(amb)
	if est.X < before.X-3 {
		t.Errorf("momentum violated: %v -> %v", before, est)
	}
}

func TestTrackerDegenerateInputs(t *testing.T) {
	tr := New(nil)
	if got := tr.Update(nil); got != (geo.Point{}) {
		t.Errorf("empty tracker Update = %v", got)
	}
	states := lineStates(5)
	tr2 := New(states)
	// Mismatched length: no-op.
	if got := tr2.Update([]float64{1, 2}); got != (geo.Point{}) {
		t.Errorf("mismatched Update = %v", got)
	}
	if tr2.Len() != 5 {
		t.Errorf("Len = %d", tr2.Len())
	}
}

func TestTrackerRecoverFromZeroBelief(t *testing.T) {
	states := lineStates(10)
	tr := New(states)
	// Huge distances make all emissions ~0 — the tracker must not NaN.
	huge := make([]float64, len(states))
	for i := range huge {
		huge[i] = 1e9
	}
	est := tr.Update(huge)
	if math.IsNaN(est.X) || math.IsNaN(est.Y) {
		t.Error("NaN estimate")
	}
	// And it still works afterwards.
	est = tr.Update(distsFor(states, geo.Pt(9, 0)))
	if math.IsNaN(est.X) {
		t.Error("NaN after recovery")
	}
}

// gridStates builds a 2-D grid of states at 3 m pitch.
func gridStates(side int) []geo.Point {
	out := make([]geo.Point, 0, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			out = append(out, geo.Pt(float64(x)*3, float64(y)*3))
		}
	}
	return out
}

// neighborListsFor computes the reference neighbor lists by the same
// definition newKernel documents.
func neighborListsFor(states []geo.Point, maxD float64) [][]int32 {
	out := make([][]int32, len(states))
	for j := range states {
		for i := range states {
			if states[i].Dist(states[j]) > maxD {
				continue
			}
			out[j] = append(out[j], int32(i))
		}
	}
	return out
}

// matchDense fails the test unless tr's estimate and belief equal the
// dense reference's Float64bits-exactly.
func matchDense(t *testing.T, step int, tr *Tracker, got geo.Point, ref *DenseTracker, want geo.Point) {
	t.Helper()
	if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
		t.Fatalf("step %d: estimate %v, dense reference %v", step, got, want)
	}
	for i := range tr.belief {
		if math.Float64bits(tr.belief[i]) != math.Float64bits(ref.Belief[i]) {
			t.Fatalf("step %d: belief[%d] = %v, dense reference %v", step, i, tr.belief[i], ref.Belief[i])
		}
	}
}

// TestTrackerNeighborListsEquivalent verifies the update over a kernel
// built from neighbor lists is bit-identical to the dense reference
// over a long tracked walk.
func TestTrackerNeighborListsEquivalent(t *testing.T) {
	states := gridStates(12)
	ref := NewDense(states)
	fast := NewShared(states)
	fast.setKernel(newKernel(states, neighborListsFor(states, fast.TransitionRadiusM()), fast.MaxStepM))

	for step := 0; step < 30; step++ {
		truth := geo.Pt(float64(step)*1.2, float64(step)*0.7)
		dists := distsFor(states, truth)
		matchDense(t, step, fast, fast.Update(dists), ref, ref.Update(dists))
	}
}

func TestTrackerSetKernelValidation(t *testing.T) {
	states := lineStates(8)
	tr := New(states)
	lists := neighborListsFor(states, tr.TransitionRadiusM())
	if newKernel(states, lists[:3], tr.MaxStepM) != nil {
		t.Fatal("kernel built from lists of the wrong length")
	}
	if newKernel(states, neighborListsFor(states, 100), tr.MaxStepM) != nil {
		t.Fatal("kernel built from lists reaching past the transition radius")
	}
	listed := newKernel(states, lists, tr.MaxStepM)
	tr.setKernel(newKernel(states[:3], neighborListsFor(states[:3], 18), tr.MaxStepM)) // wrong length: ignored
	if tr.kern == nil || len(tr.kern.off) != len(states)+1 {
		t.Fatal("mismatched kernel was installed")
	}
	tr.setKernel(listed)
	if tr.kern != listed {
		t.Fatal("valid kernel rejected")
	}
	tr.setKernel(nil)
	if tr.kern == nil || tr.kern == listed {
		t.Fatal("nil did not install the tracker's own kernel")
	}
	// The tracker's own kernel lists exactly the pairs the neighbour
	// lists do, and tracks like the dense reference.
	for i := range lists {
		if !slices.Equal(tr.kern.rows[i], lists[i]) {
			t.Fatalf("own kernel row %d = %v, neighbour list %v", i, tr.kern.rows[i], lists[i])
		}
	}
	ref := NewDense(states)
	for step := 0; step < 12; step++ {
		dists := distsFor(states, geo.Pt(float64(step)*1.5, 0))
		matchDense(t, step, tr, tr.Update(dists), ref, ref.Update(dists))
	}
}

// TestTrackerKernelIgnoredAfterMaxStepChange pins the rebuild: a
// kernel's pairs and Gaussians are only valid for the MaxStepM it was
// built with, so changing MaxStepM afterwards must replace it with the
// tracker's own for the new step and give the dense reference's answer,
// not a stale kernel's.
func TestTrackerKernelIgnoredAfterMaxStepChange(t *testing.T) {
	states := gridStates(8)
	ref, fast := NewDense(states), NewShared(states)
	shared := newKernel(states, neighborListsFor(states, fast.TransitionRadiusM()), fast.MaxStepM)
	fast.setKernel(shared)
	if fast.kern != shared {
		t.Fatal("kernel not installed")
	}
	ref.MaxStepM, fast.MaxStepM = 4, 4
	for step := 0; step < 10; step++ {
		dists := distsFor(states, geo.Pt(float64(step)*1.5, 6))
		matchDense(t, step, fast, fast.Update(dists), ref, ref.Update(dists))
	}
	if fast.kern == shared || fast.kern.maxStepM != 4 {
		t.Fatal("the kernel was not rebuilt for the new MaxStepM")
	}
}

// memoSource is a minimal KernelSource over fixed lists.
type memoSource struct {
	lists  [][]int32
	memo   map[any]any
	builds int
}

func (m *memoSource) NeighborLists(float64) [][]int32 { return m.lists }

func (m *memoSource) Memo(key any, build func() any) any {
	if v, ok := m.memo[key]; ok {
		return v
	}
	m.builds++
	v := build()
	m.memo[key] = v
	return v
}

func TestShareKernelBuildsOncePerMaxStep(t *testing.T) {
	states := gridStates(6)
	src := &memoSource{lists: neighborListsFor(states, 18), memo: map[any]any{}}
	a, b := New(states), New(states)
	a.ShareKernel(src)
	b.ShareKernel(src)
	if a.kern == nil || a.kern != b.kern || src.builds != 1 {
		t.Fatalf("kernels %p %p after %d builds; want one shared kernel", a.kern, b.kern, src.builds)
	}
	c := New(states)
	c.MaxStepM = 5
	c.ShareKernel(src)
	if c.kern == a.kern || src.builds != 2 {
		t.Fatal("a different MaxStepM reused another step's kernel")
	}
}

// TestTrackerUpdateAllocs guards the double-buffered belief: once the
// first update has sized the buffers, tracking allocates nothing, with
// a shared kernel, with the tracker's own (New), and right after a
// RestoreState.
func TestTrackerUpdateAllocs(t *testing.T) {
	states := gridStates(12)
	dists := distsFor(states, geo.Pt(10, 12))
	shared := NewShared(states)
	shared.setKernel(newKernel(states, neighborListsFor(states, shared.TransitionRadiusM()), shared.MaxStepM))
	restored := New(states)
	restored.Update(dists)
	restored.Update(dists)
	belief, prev, cur, init := restored.ExportState()
	belief = append([]float64(nil), belief...)
	cases := []struct {
		name string
		tr   *Tracker
		step func(*Tracker)
	}{
		{"shared", shared, func(tr *Tracker) { tr.Update(dists) }},
		{"own", New(states), func(tr *Tracker) { tr.Update(dists) }},
		{"restored", restored, func(tr *Tracker) {
			tr.RestoreState(belief, prev, cur, init)
			tr.Update(dists)
		}},
	}
	for _, tc := range cases {
		tc.step(tc.tr)
		if n := testing.AllocsPerRun(50, func() { tc.step(tc.tr) }); n != 0 {
			t.Errorf("%s: Update allocates %.1f times per call in steady state", tc.name, n)
		}
	}
}

// TestSharedKernelConcurrentUpdates runs trackers that share one kernel
// (and so its factor tables' free list) from several goroutines at once
// and holds each to a tracker updated alone. Run it under -race.
func TestSharedKernelConcurrentUpdates(t *testing.T) {
	states := gridStates(12)
	k := newKernel(states, neighborListsFor(states, 18), 6)
	var scans [][]float64
	for step := 0; step < 20; step++ {
		scans = append(scans, distsFor(states, geo.Pt(float64(step)*1.3, float64(step)*0.8)))
	}
	alone := NewShared(states)
	alone.setKernel(k)
	var want [][]float64
	for _, d := range scans {
		alone.Update(d)
		want = append(want, append([]float64(nil), alone.belief...))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		tr := NewShared(states)
		tr.setKernel(k)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step, d := range scans {
				tr.Update(d)
				for i := range tr.belief {
					if math.Float64bits(tr.belief[i]) != math.Float64bits(want[step][i]) {
						t.Errorf("step %d: belief[%d] = %v, alone %v", step, i, tr.belief[i], want[step][i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
