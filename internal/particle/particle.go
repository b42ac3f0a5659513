// Package particle implements the generic sequential-importance-
// resampling particle filter shared by the motion-based PDR scheme and
// the sensor-fusion scheme. The paper maintains 300 particles per step
// and updates them every 0.5 s.
package particle

import (
	"math"
	"math/rand"

	"repro/internal/geo"
)

// DefaultCount is the particle count from the paper's implementation.
const DefaultCount = 300

// Particle is one weighted position hypothesis.
type Particle struct {
	Pos geo.Point
	W   float64
}

// Filter is a 2-D position particle filter.
type Filter struct {
	Particles []Particle
	buf       []Particle // Resample's double buffer, swapped each call
	rnd       *rand.Rand
}

// New creates a filter with n particles initialized around center with
// the given isotropic Gaussian spread.
func New(n int, center geo.Point, sigma float64, rnd *rand.Rand) *Filter {
	f := &Filter{Particles: make([]Particle, n), rnd: rnd}
	f.Reset(center, sigma)
	return f
}

// Reset re-initializes all particles around center with the given
// spread and uniform weights.
func (f *Filter) Reset(center geo.Point, sigma float64) {
	n := len(f.Particles)
	for i := range f.Particles {
		f.Particles[i] = Particle{
			Pos: geo.Pt(
				center.X+f.rnd.NormFloat64()*sigma,
				center.Y+f.rnd.NormFloat64()*sigma,
			),
			W: 1 / float64(n),
		}
	}
}

// Propose draws every particle's proposed position from move (which
// samples its own per-particle noise), in particle order, into the
// Resample double buffer, and returns the bounding box of every old
// and proposed position, for a constraint to be built over before
// Settle. A NaN coordinate makes the box's bounds on that axis NaN.
func (f *Filter) Propose(move func(geo.Point) geo.Point) geo.Rect {
	n := len(f.Particles)
	if cap(f.buf) < n {
		f.buf = make([]Particle, n)
	}
	next := f.buf[:n]
	var box geo.Rect
	if n > 0 {
		box = geo.Rect{Min: f.Particles[0].Pos, Max: f.Particles[0].Pos}
	}
	for i := range f.Particles {
		p := f.Particles[i].Pos
		q := move(p)
		next[i].Pos = q
		box.Min.X, box.Max.X = min(box.Min.X, p.X, q.X), max(box.Max.X, p.X, q.X)
		box.Min.Y, box.Max.Y = min(box.Min.Y, p.Y, q.Y), max(box.Max.Y, p.Y, q.Y)
	}
	return box
}

// Settle ends a Propose: each particle moves to its proposal unless
// blocked(old, proposed) holds, in which case it stays and its weight
// is multiplied by 0 (a map-constraint violation kills it).
func (f *Filter) Settle(blocked func(from, to geo.Point) bool) {
	next := f.buf[:len(f.Particles)]
	for i := range f.Particles {
		p := &f.Particles[i]
		if blocked(p.Pos, next[i].Pos) {
			p.W *= 0
			continue
		}
		p.Pos = next[i].Pos
	}
}

// Weight multiplies each particle's weight by the likelihood function.
// A likelihood of 0 kills the particle (e.g. a map-constraint
// violation).
func (f *Filter) Weight(likelihood func(geo.Point) float64) {
	for i := range f.Particles {
		f.Particles[i].W *= likelihood(f.Particles[i].Pos)
	}
}

// TotalWeight returns the sum of particle weights.
func (f *Filter) TotalWeight() float64 {
	var s float64
	for i := range f.Particles {
		s += f.Particles[i].W
	}
	return s
}

// Normalize rescales weights to sum to 1. It returns false (leaving
// weights untouched) when the total weight is zero or not finite,
// signalling filter collapse.
func (f *Filter) Normalize() bool {
	total := f.TotalWeight()
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return false
	}
	for i := range f.Particles {
		f.Particles[i].W /= total
	}
	return true
}

// EffectiveN returns the effective sample size 1/Σw². Weights must be
// normalized.
func (f *Filter) EffectiveN() float64 {
	var ss float64
	for i := range f.Particles {
		w := f.Particles[i].W
		ss += w * w
	}
	if ss == 0 {
		return 0
	}
	return 1 / ss
}

// NormalizeEffectiveN fuses Normalize and EffectiveN into one pass over
// the particles — the two are always called back-to-back on the epoch
// hot path. It performs the exact same per-element operations in the
// same order as the separate calls, so the returned effective sample
// size and the stored weights are bit-identical to
// Normalize()+EffectiveN(). ok is false on filter collapse (weights
// untouched, effN zero), mirroring Normalize.
func (f *Filter) NormalizeEffectiveN() (effN float64, ok bool) {
	total := f.TotalWeight()
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return 0, false
	}
	var ss float64
	for i := range f.Particles {
		w := f.Particles[i].W / total
		f.Particles[i].W = w
		ss += w * w
	}
	if ss == 0 {
		return 0, true
	}
	return 1 / ss, true
}

// Resample performs systematic resampling, leaving uniform weights.
// Weights must be normalized first. The survivor set is written into a
// double buffer that swaps with the live slice, so steady-state
// resampling allocates nothing.
func (f *Filter) Resample() {
	n := len(f.Particles)
	if n == 0 {
		return
	}
	if cap(f.buf) < n {
		f.buf = make([]Particle, n)
	}
	out := f.buf[:n]
	step := 1.0 / float64(n)
	u := f.rnd.Float64() * step
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
	f.buf = f.Particles[:0]
	f.Particles = out
}

// Estimate returns the weighted mean position. Call after Normalize.
func (f *Filter) Estimate() geo.Point {
	var x, y, w float64
	for i := range f.Particles {
		p := &f.Particles[i]
		x += p.Pos.X * p.W
		y += p.Pos.Y * p.W
		w += p.W
	}
	if w == 0 {
		return geo.Point{}
	}
	return geo.Pt(x/w, y/w)
}

// ExportParticles copies out the particle set for session migration.
func (f *Filter) ExportParticles() []Particle {
	return append([]Particle(nil), f.Particles...)
}

// RestoreParticles installs a previously exported particle set. The
// double buffer is scratch — Resample overwrites it fully before use —
// so only the live particles determine future outputs.
func (f *Filter) RestoreParticles(ps []Particle) {
	if cap(f.Particles) >= len(ps) {
		f.Particles = f.Particles[:len(ps)]
	} else {
		f.Particles = make([]Particle, len(ps))
	}
	copy(f.Particles, ps)
}

// Spread returns the weighted RMS distance of particles from the
// estimate — a cheap uncertainty proxy.
func (f *Filter) Spread() float64 {
	est := f.Estimate()
	var ss, w float64
	for i := range f.Particles {
		p := &f.Particles[i]
		ss += p.Pos.DistSq(est) * p.W
		w += p.W
	}
	if w == 0 {
		return 0
	}
	return math.Sqrt(ss / w)
}
