package schemes_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/imu"
	"repro/internal/mapstore"
	"repro/internal/particle"
	"repro/internal/scenario"
	"repro/internal/schemes"
	"repro/internal/sensing"
	"repro/internal/walker"
	"repro/internal/world"
)

// refBlocksMotion is the map constraint as it stood before
// world.Constraint: the move is tested against every region and every
// wall of the world.
func refBlocksMotion(w *world.World, a, b geo.Point) bool {
	if !w.Walkable(b) {
		return true
	}
	seg := geo.Seg(a, b)
	for _, wall := range w.Walls {
		if seg.Intersects(wall.Seg) {
			return true
		}
	}
	return false
}

// refPropagate is the PDR and fusion propagate as it stood before the
// two-pass Propose/Settle: one pass in which each particle draws its
// move and is checked against the whole world in turn (the body of the
// former particle.Filter.PropagateWeighted with the schemes' step
// function inlined).
func refPropagate(f *particle.Filter, w *world.World, rnd *rand.Rand, cfg schemes.PDRConfig, step *imu.StepEvent) {
	for i := range f.Particles {
		pos := f.Particles[i].Pos
		h := step.HeadingR + rnd.NormFloat64()*cfg.HeadingSigma
		l := step.LengthM * (1 + rnd.NormFloat64()*cfg.StepLenSigma)
		if l < 0 {
			l = 0
		}
		np, lik := pos.Add(geo.FromHeading(h).Scale(l)), 1.0
		if refBlocksMotion(w, pos, np) {
			np, lik = pos, 0
		}
		f.Particles[i].Pos = np
		f.Particles[i].W *= lik
	}
}

// firstDiff returns the index of the first particle whose position
// or weight bits differ between a and b (0 when the lengths differ),
// or -1 when the sets are bit-equal.
func firstDiff(a, b []particle.Particle) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i].Pos.X) != math.Float64bits(b[i].Pos.X) ||
			math.Float64bits(a[i].Pos.Y) != math.Float64bits(b[i].Pos.Y) ||
			math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
			return i
		}
	}
	return -1
}

// TestMotionPropagateMatchesReference walks every campus path with PDR
// and fusion twice, once through the schemes' propagate and once
// through the pre-change one-pass propagate kept above, and requires
// the particle sets and estimates to stay Float64bits-equal after every
// propagate and every Estimate.
func TestMotionPropagateMatchesReference(t *testing.T) {
	place := scenario.Campus()
	assets := scenario.NewAssets(place, 3)
	store := mapstore.New(assets.WiFiDB, mapstore.Config{Name: "wifi", RebuildBatch: 1 << 30})
	defer store.Close()
	w := place.World
	mks := map[string]func(*rand.Rand) schemes.Scheme{
		"motion": func(r *rand.Rand) schemes.Scheme { return schemes.NewPDR(w, schemes.DefaultPDRConfig(), r) },
		"fusion": func(r *rand.Rand) schemes.Scheme {
			return schemes.NewFusion(w, store, schemes.DefaultFusionConfig(), r)
		},
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			steps, blocked := 0, 0
			for k, path := range place.Paths {
				wk := walker.New(w, path.Line, walker.DefaultConfig(), rand.New(rand.NewSource(int64(20+k))))
				start, _ := path.Line.At(0)
				got, ref := mk(rand.New(rand.NewSource(int64(k)))), mk(rand.New(rand.NewSource(int64(k))))
				got.Reset(start)
				ref.Reset(start)
				for epoch := 0; !wk.Done(); epoch++ {
					snap, _ := wk.Next(true)
					gf, _, _ := schemes.MotionFilter(got)
					rf, rrnd, cfg := schemes.MotionFilter(ref)
					if snap.Step != nil {
						schemes.Propagate(got, snap)
						refPropagate(rf, w, rrnd, cfg, snap.Step)
						if i := firstDiff(gf.Particles, rf.Particles); i >= 0 {
							t.Fatalf("%s epoch %d: particle %d after propagate differs from the reference", path.Name, epoch, i)
						}
						steps++
						for _, p := range gf.Particles {
							if p.W == 0 {
								blocked++
							}
						}
					}
					rest := *snap
					rest.Step = nil
					eg, er := got.Estimate(&rest), ref.Estimate(&rest)
					if math.Float64bits(eg.Pos.X) != math.Float64bits(er.Pos.X) || math.Float64bits(eg.Pos.Y) != math.Float64bits(er.Pos.Y) {
						t.Fatalf("%s epoch %d: estimate %v, reference %v", path.Name, epoch, eg.Pos, er.Pos)
					}
					if i := firstDiff(gf.Particles, rf.Particles); i >= 0 {
						t.Fatalf("%s epoch %d: particle %d after Estimate differs from the reference", path.Name, epoch, i)
					}
				}
			}
			t.Logf("%d propagates, %d particles blocked", steps, blocked)
			if steps < 1000 || blocked == 0 {
				t.Fatalf("%d propagates with %d blocked particles: the walk proves little", steps, blocked)
			}
		})
	}
}

// motionEstimateAllocsMax is what PDR and fusion Estimate allocated per
// epoch, in steady state along campus path 1, with the one-pass
// propagate (measured by TestMotionEstimateAllocs on that code; the
// features map is one of them). The two-pass
// propagate keeps its proposals and candidate lists in reused buffers,
// so it must not allocate more.
var motionEstimateAllocsMax = map[string]float64{"motion": 2, "fusion": 4}

// TestMotionEstimateAllocs guards PDR and fusion Estimate's allocations
// per epoch in steady state, after a warm-up stretch of the walk.
func TestMotionEstimateAllocs(t *testing.T) {
	place := scenario.Campus()
	assets := scenario.NewAssets(place, 3)
	store := mapstore.New(assets.WiFiDB, mapstore.Config{Name: "wifi", RebuildBatch: 1 << 30})
	defer store.Close()
	w := place.World
	path := place.Paths[0].Line
	wk := walker.New(w, path, walker.DefaultConfig(), rand.New(rand.NewSource(5)))
	var snaps []*sensing.Snapshot
	for !wk.Done() && len(snaps) < 300 {
		snap, _ := wk.Next(true)
		snaps = append(snaps, snap)
	}
	start, _ := path.At(0)
	for _, s := range []schemes.Scheme{
		schemes.NewPDR(w, schemes.DefaultPDRConfig(), rand.New(rand.NewSource(1))),
		schemes.NewFusion(w, store, schemes.DefaultFusionConfig(), rand.New(rand.NewSource(1))),
	} {
		s.Reset(start)
		for _, snap := range snaps[:100] {
			s.Estimate(snap)
		}
		i := 100
		got := testing.AllocsPerRun(150, func() {
			s.Estimate(snaps[i])
			i++
		})
		t.Logf("%s: %v allocs per Estimate", s.Name(), got)
		if got > motionEstimateAllocsMax[s.Name()] {
			t.Errorf("%s Estimate allocates %v objects per epoch, want at most %v", s.Name(), got, motionEstimateAllocsMax[s.Name()])
		}
	}
}
