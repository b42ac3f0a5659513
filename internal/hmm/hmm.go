// Package hmm implements the second-order hidden-Markov-model location
// predictor the paper uses to estimate the user's position online when
// computing the fingerprint-density feature β₁ (§III-B: "In our current
// implementation, we use a second order HMM, which can provide an
// acceptable estimation accuracy").
//
// States are the fingerprint locations themselves. The transition model
// prefers physically reachable moves (bounded walking speed) and, being
// second-order, moves consistent with the previous displacement
// direction. The emission model converts RSSI-space distance into a
// likelihood.
package hmm

import (
	"math"

	"repro/internal/geo"
)

// Tracker is an online second-order HMM filter over a fixed set of
// candidate locations.
type Tracker struct {
	states []geo.Point

	// belief over (prev, cur) state pairs is too large for dense
	// storage at survey resolution; we keep the marginal belief over
	// the current state plus the expected previous position, which is
	// the standard collapsed approximation for second-order motion
	// smoothing.
	belief []float64
	prev   geo.Point
	cur    geo.Point
	init   bool

	// MaxStepM bounds plausible movement between updates.
	MaxStepM float64
	// DirWeight controls how strongly direction consistency (the
	// second-order term) is rewarded.
	DirWeight float64
	// EmissionScale converts RSSI distance to log-likelihood: larger
	// means flatter emissions.
	EmissionScale float64

	// kern, when set, holds the transition radius's neighbour pairs
	// with their distances and step Gaussians, letting Update skip the
	// full O(N²) scan and its per-pair Hypot and Exp. See setKernel.
	kern *kernel
	// next is Update's output buffer, swapped with belief after every
	// update so steady-state tracking allocates nothing.
	next []float64
}

// kernel is the belief-independent part of the transition model over
// one state set: for every state j, the states i within the transition
// radius, ascending, with their distance d = states[i].Dist(states[j])
// and step Gaussian exp(-d²/2σ²), σ = MaxStepM. It depends only on the
// states and MaxStepM, so a map snapshot builds one and every tracker
// over that snapshot shares it read-only (see ShareKernel).
//
// Update over a kernel is bit-identical to the full scan:
//   - The rows list the pairs the scan does not skip (d ≤ 3σ), in the
//     scan's order, so the same terms are summed in the same order.
//   - d and the Gaussian are the scan's own expressions evaluated once
//     on the same operands, so they round to the same bits.
//   - The second-order term needs the move's length |sj−si|, which the
//     scan computes as a separate Norm. It is d bit for bit: Hypot
//     takes absolute values first, and a−b = −(b−a) exactly in IEEE
//     arithmetic, so both calls see the same operands.
//
// Surveyed maps sit on a few grid spacings, so their pairs share few
// distinct distances. Each pair stores an index into a table of
// distinct (d, Gaussian) values instead of the values themselves, and
// the rows are the neighbour lists the kernel was built from, not a
// copy: the kernel adds about 4 bytes per pair to the lists it shares
// (about 90 KB for a campus map), where storing both values per pair
// would add 16 and lift every node's heap.
type kernel struct {
	maxStepM float64
	rows     [][]int32 // rows[j]: the neighbour list of state j
	off      []int32   // row j's pair indices start at step[off[j]]
	step     []int32   // per pair: index into dist and gauss
	dist     []float64 // distinct step lengths
	gauss    []float64 // stepGauss of each distinct length
}

// newKernel builds the transition kernel for states from neighbour
// lists: lists[j] holds, in ascending order, every state index i with
// states[i].Dist(states[j]) <= 3*maxStepM, self included (what
// mapstore.Snapshot.NeighborLists returns for that radius). The kernel
// keeps lists, which must not change afterwards. Lists of the wrong
// length, or listing a pair beyond the radius, yield nil: the tracker
// then takes the full scan.
func newKernel(states []geo.Point, lists [][]int32, maxStepM float64) *kernel {
	if len(lists) != len(states) {
		return nil
	}
	k := &kernel{maxStepM: maxStepM, rows: lists, off: make([]int32, 1, len(states)+1)}
	ids := make(map[uint64]int32)
	for j, sj := range states {
		for _, i := range lists[j] {
			d := states[i].Dist(sj)
			if d > maxStepM*3 {
				return nil
			}
			id, ok := ids[math.Float64bits(d)]
			if !ok {
				id = int32(len(k.dist))
				ids[math.Float64bits(d)] = id
				k.dist = append(k.dist, d)
				k.gauss = append(k.gauss, stepGauss(d, maxStepM))
			}
			k.step = append(k.step, id)
		}
		k.off = append(k.off, int32(len(k.step)))
	}
	return k
}

// KernelSource is a map revision that can hand out neighbour lists and
// memoize values derived from it; mapstore.Snapshot implements it.
type KernelSource interface {
	NeighborLists(maxDistM float64) [][]int32
	Memo(key any, build func() any) any
}

// kernelKey memoizes kernels per MaxStepM (by bits) on a KernelSource.
type kernelKey uint64

// ShareKernel installs the transition kernel src memoizes for this
// tracker's MaxStepM, building it on first use from src's neighbour
// lists at TransitionRadiusM. Update then walks only the kernel's
// pairs, bit-identically to the full scan. src must be the map
// revision whose positions are this tracker's states, so every tracker
// over it shares one kernel. Changing MaxStepM afterwards restores the
// full scan.
func (t *Tracker) ShareKernel(src KernelSource) {
	maxStep := t.MaxStepM
	k := src.Memo(kernelKey(math.Float64bits(maxStep)), func() any {
		return newKernel(t.states, src.NeighborLists(t.TransitionRadiusM()), maxStep)
	}).(*kernel)
	t.setKernel(k)
}

// New creates a tracker over the given candidate locations. The slice
// is copied, so the caller may reuse it.
func New(states []geo.Point) *Tracker {
	return NewShared(append([]geo.Point(nil), states...))
}

// NewShared creates a tracker that adopts states without copying. The
// caller guarantees the slice is never mutated afterwards — e.g. the
// positions slice a sharedcompute entry materializes once per map
// snapshot and hands to every session's tracker. All mutable filter
// state (belief, previous position) stays private per tracker, so
// trackers sharing one states slice are fully independent.
func NewShared(states []geo.Point) *Tracker {
	t := &Tracker{
		states:        states,
		belief:        make([]float64, len(states)),
		MaxStepM:      6,
		DirWeight:     0.6,
		EmissionScale: 12,
	}
	for i := range t.belief {
		if len(states) > 0 {
			t.belief[i] = 1 / float64(len(states))
		}
	}
	return t
}

// Len returns the number of states.
func (t *Tracker) Len() int { return len(t.states) }

// TransitionRadiusM returns the distance beyond which the transition
// model assigns zero probability — the radius neighbor lists must be
// built with.
func (t *Tracker) TransitionRadiusM() float64 { return t.MaxStepM * 3 }

// setKernel installs a transition kernel built over this tracker's
// states. Passing nil, or a kernel of the wrong length, restores the
// full scan.
func (t *Tracker) setKernel(k *kernel) {
	if k != nil && len(k.off) != len(t.states)+1 {
		k = nil
	}
	t.kern = k
}

// stepGauss is the transition model's Gaussian over step length d.
func stepGauss(d, maxStepM float64) float64 {
	return math.Exp(-d * d / (2 * maxStepM * maxStepM))
}

// secondOrder boosts the step Gaussian g of the move si→sj, of length
// d, when it continues the previous displacement dir (the second-order
// term).
func (t *Tracker) secondOrder(g float64, si, sj geo.Point, d float64, dir geo.Point, dirNorm float64) float64 {
	if dirNorm > 0.5 && d > 0.3 {
		cos := sj.Sub(si).Dot(dir) / (d * dirNorm)
		g *= 1 + t.DirWeight*cos
		if g < 0 {
			g = 0
		}
	}
	return g
}

// Update folds in one observation given as the RSSI distance from the
// online scan to each state's fingerprint, and returns the predicted
// location (the belief-weighted mean).
func (t *Tracker) Update(rssiDists []float64) geo.Point {
	if len(rssiDists) != len(t.states) || len(t.states) == 0 {
		return t.cur
	}
	if len(t.next) != len(t.states) {
		t.next = make([]float64, len(t.states))
	}
	next := t.next
	k := t.kern
	if k != nil && k.maxStepM != t.MaxStepM {
		k = nil
	}
	dir := t.cur.Sub(t.prev)
	dirNorm := dir.Norm()
	for j, sj := range t.states {
		var trans float64
		if !t.init {
			trans = 1
		} else if k != nil {
			steps := k.step[k.off[j]:k.off[j+1]]
			for x, i := range k.rows[j] {
				if t.belief[i] <= 1e-12 {
					continue
				}
				e := steps[x]
				trans += t.belief[i] * t.secondOrder(k.gauss[e], t.states[i], sj, k.dist[e], dir, dirNorm)
			}
		} else {
			for i, si := range t.states {
				if t.belief[i] <= 1e-12 {
					continue
				}
				d := si.Dist(sj)
				if d > t.MaxStepM*3 {
					continue
				}
				trans += t.belief[i] * t.secondOrder(stepGauss(d, t.MaxStepM), si, sj, d, dir, dirNorm)
			}
		}
		emit := math.Exp(-rssiDists[j] / t.EmissionScale)
		next[j] = trans * emit
	}
	var total float64
	for _, v := range next {
		total += v
	}
	if total <= 0 || math.IsNaN(total) {
		// Degenerate update: reset to the emission-only belief.
		total = 0
		for j := range next {
			next[j] = math.Exp(-rssiDists[j] / t.EmissionScale)
			total += next[j]
		}
		if total <= 0 {
			return t.cur
		}
	}
	for j := range next {
		next[j] /= total
	}
	t.belief, t.next = next, t.belief

	var x, y float64
	for j, s := range t.states {
		x += s.X * next[j]
		y += s.Y * next[j]
	}
	est := geo.Pt(x, y)
	t.prev, t.cur = t.cur, est
	t.init = true
	return est
}

// Predicted returns the current predicted location (zero before the
// first update).
func (t *Tracker) Predicted() geo.Point { return t.cur }

// ExportState returns the tracker's mutable filter state — the
// current belief, the last two predicted positions, and whether the
// first update has happened — for session migration. belief is the
// tracker's own buffer, not a copy: read it before the next Update or
// RestoreState, and never write it. The states slice itself is derived
// from the map snapshot and is rebuilt, not shipped.
func (t *Tracker) ExportState() (belief []float64, prev, cur geo.Point, init bool) {
	return t.belief, t.prev, t.cur, t.init
}

// RestoreState installs exported filter state into a tracker built
// over the same states. It reports false (leaving the fresh uniform
// belief in place) when the belief length does not match this
// tracker's state count — the map advanced between snapshot and
// restore, and a stale belief over different states would be
// meaningless.
func (t *Tracker) RestoreState(belief []float64, prev, cur geo.Point, init bool) bool {
	if len(belief) != len(t.states) {
		return false
	}
	copy(t.belief, belief)
	t.prev, t.cur, t.init = prev, cur, init
	return true
}
