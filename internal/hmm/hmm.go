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

	// kern holds the transition radius's neighbour pairs with their
	// distances and step Gaussians, so Update visits only the pairs the
	// transition model can reach. ShareKernel installs a map snapshot's;
	// otherwise (New, or a MaxStepM changed since install) the tracker
	// builds its own. See Update.
	kern *kernel
	// next is Update's output buffer, swapped with belief after every
	// update so steady-state tracking allocates nothing.
	next []float64
}

// kernel is the belief-independent part of the transition model over
// one state set: for every state i, the states j the transition model
// can reach from it, !(d > 3σ) with d = states[j].Dist(states[i]) and
// σ = MaxStepM (self included), with d and the step Gaussian
// exp(-d²/2σ²). It depends only on the states and MaxStepM, so a map
// snapshot builds one and every tracker over that snapshot shares it
// read-only (see ShareKernel); a tracker over anything else builds its
// own (ownKernel).
//
// d and the Gaussian are the transition model's own expressions,
// evaluated once per pair on the same operands as a per-update scan, so
// they round to the same bits. The second-order term needs the move's
// length |sj−si|, which a scan computes as a separate Norm; it is d bit
// for bit, since Hypot takes absolute values first and a−b = −(b−a)
// exactly in IEEE arithmetic. For the same reason the pair rule is
// symmetric: j is in row i exactly when i is in row j, with the same d.
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
	rows     [][]int32 // rows[i]: the neighbour list of state i
	off      []int32   // row i's pair indices start at step[off[i]]
	step     []int32   // per pair: index into dist and gauss
	dist     []float64 // distinct step lengths
	gauss    []float64 // stepGauss of each distinct length
}

// newKernel builds the transition kernel for states from neighbour
// lists: lists[i] holds every state index j with
// !(states[j].Dist(states[i]) > 3*maxStepM), self included (what
// mapstore.Snapshot.NeighborLists returns for that radius). The kernel
// keeps lists, which must not change afterwards. Lists of the wrong
// length, or listing a pair beyond the radius, yield nil.
func newKernel(states []geo.Point, lists [][]int32, maxStepM float64) *kernel {
	if len(lists) != len(states) {
		return nil
	}
	k := &kernel{maxStepM: maxStepM, rows: lists, off: make([]int32, 1, len(states)+1)}
	ids := make(map[uint64]int32)
	for i, si := range states {
		for _, j := range lists[i] {
			d := states[j].Dist(si)
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

// ownKernel builds a kernel over states from the pair rule itself,
// testing every pair once: O(N²) at construction, where a transition
// scan without a kernel would pay it on every update.
func ownKernel(states []geo.Point, maxStepM float64) *kernel {
	lists := make([][]int32, len(states))
	for j, sj := range states {
		for i, si := range states[:j+1] {
			if !(si.Dist(sj) > maxStepM*3) {
				// Pairs arrive with j ascending and, for each j, i
				// ascending up to j, so every list stays ascending.
				lists[j] = append(lists[j], int32(i))
				if i != j {
					lists[i] = append(lists[i], int32(j))
				}
			}
		}
	}
	return newKernel(states, lists, maxStepM)
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
// lists at TransitionRadiusM, in place of the tracker's own. src must
// be the map revision whose positions are this tracker's states, so
// every tracker over it shares one kernel. Lists src gets wrong (of
// the wrong length, or past the radius) leave the tracker to build its
// own, as does changing MaxStepM afterwards.
func (t *Tracker) ShareKernel(src KernelSource) {
	maxStep := t.MaxStepM
	k := src.Memo(kernelKey(math.Float64bits(maxStep)), func() any {
		return newKernel(t.states, src.NeighborLists(t.TransitionRadiusM()), maxStep)
	}).(*kernel)
	t.setKernel(k)
}

// New creates a tracker over the given candidate locations, with its
// own transition kernel. The slice is copied, so the caller may reuse
// it.
func New(states []geo.Point) *Tracker {
	t := NewShared(append([]geo.Point(nil), states...))
	t.setKernel(nil)
	return t
}

// NewShared creates a tracker that adopts states without copying. The
// caller guarantees the slice is never mutated afterwards — e.g. the
// positions a map snapshot memoizes once (schemes keeps them in
// Snapshot.Memo) and hands to every session's tracker, which then
// shares the snapshot's kernel through ShareKernel; without one, the
// tracker builds its own at its first transition. All mutable filter
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
// states for its MaxStepM. Passing nil, or a kernel of the wrong
// length, installs the tracker's own.
func (t *Tracker) setKernel(k *kernel) {
	if k == nil || len(k.off) != len(t.states)+1 {
		k = ownKernel(t.states, t.MaxStepM)
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
//
// The transition mass of state j is the sum, over ascending states i
// with belief[i] > 1e-12 (NaN included: only a belief ≤ 1e-12 is
// dropped) and within reach of j, of belief[i]·secondOrder(i→j). Update
// pushes it from the live sources: each adds its term to every state in
// its kernel row. That equals the dense pull, where every target j sums
// over every source i (the tests' reference), bit for bit:
//   - Symmetric rows: j is in row i exactly when i is in row j, with
//     the same d (see kernel), so each target gets the pull's terms.
//   - Same order: sources are visited in ascending order, so each
//     target adds its terms in the pull's order, starting from +0.
//   - Zeros change nothing: a target no source reaches keeps the pull's
//     empty sum, +0. Its emission Exp is skipped only where
//     trans·emit = trans is certain: emit = exp(-d/s) lies in [0, 1]
//     when d ≥ 0 (not NaN) and s = EmissionScale is finite and > 0.
//     Any other distance or scale takes the Exp and the product.
//   - Full paths: the first, uniform update and the degenerate
//     emission-only reset compute every emission.
//
// The sources are read from belief at each update, so RestoreState and
// a snapshot swap need no other state.
func (t *Tracker) Update(rssiDists []float64) geo.Point {
	if len(rssiDists) != len(t.states) || len(t.states) == 0 {
		return t.cur
	}
	if len(t.next) != len(t.states) {
		t.next = make([]float64, len(t.states))
	}
	next := t.next
	if t.init {
		t.transition(next)
	} else {
		for j := range next {
			next[j] = 1
		}
	}
	scaleOK := t.EmissionScale > 0 && t.EmissionScale <= math.MaxFloat64
	for j, trans := range next {
		if trans == 0 && scaleOK && rssiDists[j] >= 0 {
			continue // trans·emit = trans
		}
		next[j] = trans * math.Exp(-rssiDists[j]/t.EmissionScale)
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

// transition overwrites next with the transition mass every state
// receives from the current belief, pushed from the live sources along
// the kernel's rows (see Update). A kernel built for another MaxStepM
// is replaced by the tracker's own first.
func (t *Tracker) transition(next []float64) {
	if t.kern == nil || math.Float64bits(t.kern.maxStepM) != math.Float64bits(t.MaxStepM) {
		t.setKernel(nil)
	}
	k := t.kern
	clear(next)
	dir := t.cur.Sub(t.prev)
	dirNorm := dir.Norm()
	for i, b := range t.belief {
		if b <= 1e-12 {
			continue
		}
		si := t.states[i]
		steps := k.step[k.off[i]:k.off[i+1]]
		for x, j := range k.rows[i] {
			e := steps[x]
			next[j] += b * t.secondOrder(k.gauss[e], si, t.states[j], k.dist[e], dir, dirNorm)
		}
	}
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
