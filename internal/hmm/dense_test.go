package hmm

import (
	"math"

	"repro/internal/geo"
)

// DenseTracker is the tracker's update as it was before kernels and the
// push update: every state pulls its transition mass over every state,
// skipping beliefs ≤ 1e-12 and pairs beyond 3σ, recomputes each pair's
// distance, step Gaussian and move length, and takes every emission.
// The oracles hold Tracker.Update to it Float64bits-exactly. It is
// exported, in a test file, for the package's external tests.
type DenseTracker struct {
	States    []geo.Point
	Belief    []float64
	Prev, Cur geo.Point
	Init      bool

	MaxStepM, DirWeight, EmissionScale float64
}

// NewDense returns a reference tracker with New's initial state and
// parameters.
func NewDense(states []geo.Point) *DenseTracker {
	t := &DenseTracker{States: states, Belief: make([]float64, len(states)), MaxStepM: 6, DirWeight: 0.6, EmissionScale: 12}
	for i := range t.Belief {
		t.Belief[i] = 1 / float64(len(states))
	}
	return t
}

// KernelSize returns the number of distinct moves and of pairs in t's
// transition kernel (0, 0 before it has one), for the package's
// external tests.
func KernelSize(t *Tracker) (moves, pairs int) {
	if t.kern == nil {
		return 0, 0
	}
	return len(t.kern.move), len(t.kern.step)
}

// RestoreState mirrors Tracker.RestoreState.
func (t *DenseTracker) RestoreState(belief []float64, prev, cur geo.Point, init bool) {
	copy(t.Belief, belief)
	t.Prev, t.Cur, t.Init = prev, cur, init
}

// Update mirrors Tracker.Update.
func (t *DenseTracker) Update(rssiDists []float64) geo.Point {
	if len(rssiDists) != len(t.States) || len(t.States) == 0 {
		return t.Cur
	}
	next := make([]float64, len(t.States))
	dir := t.Cur.Sub(t.Prev)
	dirNorm := dir.Norm()
	for j, sj := range t.States {
		var trans float64
		if !t.Init {
			trans = 1
		} else {
			for i, si := range t.States {
				if t.Belief[i] <= 1e-12 {
					continue
				}
				d := si.Dist(sj)
				if d > t.MaxStepM*3 {
					continue
				}
				g := math.Exp(-d * d / (2 * t.MaxStepM * t.MaxStepM))
				if dirNorm > 0.5 {
					move := sj.Sub(si)
					if mn := move.Norm(); mn > 0.3 {
						cos := move.Dot(dir) / (mn * dirNorm)
						g *= 1 + t.DirWeight*cos
						if g < 0 {
							g = 0
						}
					}
				}
				trans += t.Belief[i] * g
			}
		}
		next[j] = trans * math.Exp(-rssiDists[j]/t.EmissionScale)
	}
	var total float64
	for _, v := range next {
		total += v
	}
	if total <= 0 || math.IsNaN(total) {
		total = 0
		for j := range next {
			next[j] = math.Exp(-rssiDists[j] / t.EmissionScale)
			total += next[j]
		}
		if total <= 0 {
			return t.Cur
		}
	}
	for j := range next {
		next[j] /= total
	}
	t.Belief = next
	var x, y float64
	for j, s := range t.States {
		x += s.X * next[j]
		y += s.Y * next[j]
	}
	t.Prev, t.Cur = t.Cur, geo.Pt(x, y)
	t.Init = true
	return t.Cur
}
