package hmm

import (
	"math"
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

// TestTrackerNeighborListsEquivalent verifies the transition kernel
// built from neighbor lists is bit-identical to the full scan over a
// long tracked walk.
func TestTrackerNeighborListsEquivalent(t *testing.T) {
	states := gridStates(12)
	full := New(states)
	fast := New(states)
	fast.setKernel(newKernel(states, neighborListsFor(states, fast.TransitionRadiusM()), fast.MaxStepM))

	for step := 0; step < 30; step++ {
		truth := geo.Pt(float64(step)*1.2, float64(step)*0.7)
		dists := distsFor(states, truth)
		a := full.Update(dists)
		b := fast.Update(dists)
		if a != b {
			t.Fatalf("step %d: estimates diverged: %v != %v", step, a, b)
		}
		for i := range full.belief {
			if full.belief[i] != fast.belief[i] {
				t.Fatalf("step %d: belief[%d] diverged: %v != %v", step, i, full.belief[i], fast.belief[i])
			}
		}
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
	tr.setKernel(newKernel(states[:3], neighborListsFor(states[:3], 18), tr.MaxStepM)) // wrong length: ignored
	if tr.kern != nil {
		t.Fatal("mismatched kernel was installed")
	}
	tr.setKernel(newKernel(states, lists, tr.MaxStepM))
	if tr.kern == nil {
		t.Fatal("valid kernel rejected")
	}
	tr.setKernel(nil)
	if tr.kern != nil {
		t.Fatal("nil did not restore the full scan")
	}
}

// TestTrackerKernelIgnoredAfterMaxStepChange pins the fallback: a
// kernel's Gaussians are only valid for the MaxStepM it was built
// with, so changing MaxStepM afterwards must give the full scan's
// answer, not a stale kernel's.
func TestTrackerKernelIgnoredAfterMaxStepChange(t *testing.T) {
	states := gridStates(8)
	full, fast := New(states), New(states)
	fast.setKernel(newKernel(states, neighborListsFor(states, fast.TransitionRadiusM()), fast.MaxStepM))
	if fast.kern == nil {
		t.Fatal("kernel not installed")
	}
	full.MaxStepM, fast.MaxStepM = 4, 4
	for step := 0; step < 10; step++ {
		dists := distsFor(states, geo.Pt(float64(step)*1.5, 6))
		if a, b := full.Update(dists), fast.Update(dists); a != b {
			t.Fatalf("step %d: %v != %v", step, a, b)
		}
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
// first update has sized the buffers, tracking allocates nothing.
func TestTrackerUpdateAllocs(t *testing.T) {
	states := gridStates(12)
	tr := New(states)
	tr.setKernel(newKernel(states, neighborListsFor(states, tr.TransitionRadiusM()), tr.MaxStepM))
	dists := distsFor(states, geo.Pt(10, 12))
	tr.Update(dists)
	if n := testing.AllocsPerRun(50, func() { tr.Update(dists) }); n != 0 {
		t.Fatalf("Update allocates %.1f times per call in steady state", n)
	}
}
