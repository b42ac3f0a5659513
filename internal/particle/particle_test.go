package particle

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func TestNewInitializesAroundCenter(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	f := New(300, geo.Pt(10, 20), 1, rnd)
	if len(f.Particles) != 300 {
		t.Fatalf("count = %d", len(f.Particles))
	}
	est := f.Estimate()
	if est.Dist(geo.Pt(10, 20)) > 0.5 {
		t.Errorf("estimate %v far from center", est)
	}
	if math.Abs(f.TotalWeight()-1) > 1e-9 {
		t.Errorf("weights should sum to 1, got %v", f.TotalWeight())
	}
}

func TestPropagateShiftsCloud(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	f := New(200, geo.Pt(0, 0), 0.5, rnd)
	f.Propose(func(p geo.Point) geo.Point { return p.Add(geo.Pt(3, 4)) })
	f.Settle(func(_, _ geo.Point) bool { return false })
	est := f.Estimate()
	if est.Dist(geo.Pt(3, 4)) > 0.3 {
		t.Errorf("estimate %v, want near (3,4)", est)
	}
}

func TestWeightAndNormalize(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	f := New(500, geo.Pt(0, 0), 5, rnd)
	// Kill the left half.
	f.Weight(func(p geo.Point) float64 {
		if p.X < 0 {
			return 0
		}
		return 1
	})
	if !f.Normalize() {
		t.Fatal("normalize failed")
	}
	est := f.Estimate()
	if est.X <= 0 {
		t.Errorf("estimate %v should move right", est)
	}
}

func TestNormalizeCollapse(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	f := New(10, geo.Pt(0, 0), 1, rnd)
	f.Weight(func(geo.Point) float64 { return 0 })
	if f.Normalize() {
		t.Error("all-zero weights should report collapse")
	}
}

func TestResamplePreservesDistribution(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	f := New(1000, geo.Pt(0, 0), 1, rnd)
	// Concentrate weight at particles with x > 1.
	f.Weight(func(p geo.Point) float64 {
		if p.X > 1 {
			return 10
		}
		return 0.01
	})
	if !f.Normalize() {
		t.Fatal("normalize")
	}
	before := f.Estimate()
	f.Resample()
	if math.Abs(f.TotalWeight()-1) > 1e-9 {
		t.Errorf("resampled weights sum to %v", f.TotalWeight())
	}
	after := f.Estimate()
	if after.Dist(before) > 0.4 {
		t.Errorf("resampling moved the estimate %v -> %v", before, after)
	}
	// Uniform weights afterwards.
	w0 := f.Particles[0].W
	for _, p := range f.Particles {
		if p.W != w0 {
			t.Fatal("weights not uniform after resample")
		}
	}
}

func TestEffectiveN(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	f := New(100, geo.Pt(0, 0), 1, rnd)
	if n := f.EffectiveN(); math.Abs(n-100) > 1e-6 {
		t.Errorf("uniform effective N = %v", n)
	}
	// All weight on one particle.
	for i := range f.Particles {
		f.Particles[i].W = 0
	}
	f.Particles[0].W = 1
	if n := f.EffectiveN(); math.Abs(n-1) > 1e-9 {
		t.Errorf("degenerate effective N = %v", n)
	}
}

func TestSpread(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	tight := New(500, geo.Pt(0, 0), 0.5, rnd)
	loose := New(500, geo.Pt(0, 0), 5, rnd)
	if tight.Spread() >= loose.Spread() {
		t.Errorf("tight %v should be below loose %v", tight.Spread(), loose.Spread())
	}
}

func TestReset(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	f := New(100, geo.Pt(0, 0), 1, rnd)
	f.Reset(geo.Pt(50, 50), 2)
	if f.Estimate().Dist(geo.Pt(50, 50)) > 1.5 {
		t.Errorf("reset estimate = %v", f.Estimate())
	}
}

func TestProposeSettle(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	f := New(400, geo.Pt(0, 0), 1, rnd)
	old := append([]Particle(nil), f.Particles...)
	// Move right; block anything that would end up above y=0.
	box := f.Propose(func(p geo.Point) geo.Point { return p.Add(geo.Pt(2, 0)) })
	for _, p := range old {
		for _, q := range []geo.Point{p.Pos, p.Pos.Add(geo.Pt(2, 0))} {
			if !box.Contains(q) {
				t.Fatalf("box %v misses %v", box, q)
			}
		}
	}
	if box.Min.X != minOf(old, func(p Particle) float64 { return p.Pos.X }) {
		t.Errorf("box %v is not tight", box)
	}
	f.Settle(func(a, b geo.Point) bool { return b.Y > 0 })
	for i, p := range f.Particles {
		moved := old[i].Pos.Add(geo.Pt(2, 0))
		switch {
		case moved.Y > 0 && (p.Pos != old[i].Pos || p.W != 0):
			t.Fatalf("blocked particle %d: %v, want %v with weight 0", i, p, old[i].Pos)
		case moved.Y <= 0 && (p.Pos != moved || p.W != old[i].W):
			t.Fatalf("free particle %d: %v, want %v with weight %v", i, p, moved, old[i].W)
		}
	}
	if !f.Normalize() {
		t.Fatal("normalize")
	}
	est := f.Estimate()
	if est.Y > 0 {
		t.Errorf("estimate %v should be at/below y=0", est)
	}
	if est.X < 1 {
		t.Errorf("estimate %v should have moved right", est)
	}
}

// TestProposeBoxNaN: a NaN proposal makes the box NaN on its axis, so
// a constraint built over it excludes nothing there.
func TestProposeBoxNaN(t *testing.T) {
	f := New(10, geo.Pt(0, 0), 1, rand.New(rand.NewSource(4)))
	i := 0
	box := f.Propose(func(p geo.Point) geo.Point {
		i++
		if i == 5 {
			return geo.Pt(math.NaN(), p.Y)
		}
		return p
	})
	if !math.IsNaN(box.Min.X) || !math.IsNaN(box.Max.X) || math.IsNaN(box.Min.Y) || math.IsNaN(box.Max.Y) {
		t.Fatalf("box %v, want NaN x bounds and finite y bounds", box)
	}
}

func minOf(ps []Particle, key func(Particle) float64) float64 {
	m := math.Inf(1)
	for _, p := range ps {
		m = math.Min(m, key(p))
	}
	return m
}

func TestEstimateEmptyWeights(t *testing.T) {
	f := &Filter{Particles: []Particle{{Pos: geo.Pt(1, 1), W: 0}}}
	if got := f.Estimate(); got != (geo.Point{}) {
		t.Errorf("zero-weight estimate = %v", got)
	}
	if got := f.Spread(); got != 0 {
		t.Errorf("zero-weight spread = %v", got)
	}
}

// TestResampleDoubleBufferEquivalence: the double-buffered Resample
// must survive repeated cycles with the exact survivor selection of
// the old allocate-per-call version (one rnd.Float64 draw, systematic
// sweep), and the two live buffers must never alias.
func TestResampleDoubleBufferEquivalence(t *testing.T) {
	mkWeighted := func(rnd *rand.Rand) *Filter {
		f := New(200, geo.Pt(0, 0), 2, rnd)
		for i := range f.Particles {
			f.Particles[i].W = float64(i%7) + 0.1
		}
		f.Normalize()
		return f
	}
	// Reference: the pre-double-buffer algorithm, verbatim.
	resampleRef := func(f *Filter, rnd *rand.Rand) []Particle {
		n := len(f.Particles)
		out := make([]Particle, n)
		step := 1.0 / float64(n)
		u := rnd.Float64() * step
		var cum float64
		j := 0
		for i := 0; i < n; i++ {
			target := u + float64(i)*step
			for cum+f.Particles[j].W < target && j < n-1 {
				cum += f.Particles[j].W
				j++
			}
			out[i] = Particle{Pos: f.Particles[j].Pos, W: step}
		}
		return out
	}

	f := mkWeighted(rand.New(rand.NewSource(3)))
	ref := mkWeighted(rand.New(rand.NewSource(3)))
	refRnd := rand.New(rand.NewSource(4))
	f.rnd = rand.New(rand.NewSource(4))
	for cycle := 0; cycle < 5; cycle++ {
		want := resampleRef(ref, refRnd)
		f.Resample()
		if len(f.Particles) != len(want) {
			t.Fatalf("cycle %d: length %d != %d", cycle, len(f.Particles), len(want))
		}
		for i := range want {
			if f.Particles[i] != want[i] {
				t.Fatalf("cycle %d particle %d: %+v != %+v", cycle, i, f.Particles[i], want[i])
			}
		}
		ref.Particles = want
		// Re-weight both identically for the next cycle.
		for i := range f.Particles {
			w := float64((i*13)%11) + 0.2
			f.Particles[i].W = w
			ref.Particles[i].W = w
		}
		f.Normalize()
		ref.Normalize()
	}
}

// TestResampleNoAllocsSteadyState is the allocation guardrail from the
// parallel-pipeline PR: after the first call warms the double buffer,
// Resample must not allocate at all.
func TestResampleNoAllocsSteadyState(t *testing.T) {
	f := New(DefaultCount, geo.Pt(0, 0), 2, rand.New(rand.NewSource(5)))
	f.Normalize()
	f.Resample() // warm the buffer
	got := testing.AllocsPerRun(100, func() {
		// Resample leaves uniform weights, already normalized — each
		// run is a valid steady-state resampling pass.
		f.Resample()
	})
	if got != 0 {
		t.Fatalf("steady-state Resample allocates %v objects/op, want 0", got)
	}
}

// TestNormalizeEffectiveNMatchesSeparateCalls: the fused pass must be
// bit-identical to Normalize followed by EffectiveN, including the
// collapse path.
func TestNormalizeEffectiveNMatchesSeparateCalls(t *testing.T) {
	mk := func(seed int64) *Filter {
		f := New(150, geo.Pt(1, 2), 3, rand.New(rand.NewSource(seed)))
		for i := range f.Particles {
			f.Particles[i].W = math.Abs(math.Sin(float64(i))) * 0.7
		}
		return f
	}
	a, b := mk(6), mk(6)
	okB := b.Normalize()
	effB := b.EffectiveN()
	effA, okA := a.NormalizeEffectiveN()
	if okA != okB {
		t.Fatalf("ok: fused %v, separate %v", okA, okB)
	}
	if math.Float64bits(effA) != math.Float64bits(effB) {
		t.Fatalf("effN: fused %v, separate %v", effA, effB)
	}
	for i := range a.Particles {
		if a.Particles[i] != b.Particles[i] {
			t.Fatalf("particle %d: fused %+v, separate %+v", i, a.Particles[i], b.Particles[i])
		}
	}

	// Collapse: zero total weight must leave weights untouched.
	c := mk(7)
	for i := range c.Particles {
		c.Particles[i].W = 0
	}
	if eff, ok := c.NormalizeEffectiveN(); ok || eff != 0 {
		t.Fatalf("collapse: eff=%v ok=%v, want 0,false", eff, ok)
	}
}
