package schemes

import (
	"math"
	"math/rand"

	"repro/internal/geo"
	"repro/internal/imu"
	"repro/internal/particle"
	"repro/internal/prng"
	"repro/internal/sensing"
	"repro/internal/world"
)

// headingWindow is the number of recent steps over which the
// orientation-changing-frequency feature is computed; at 2 steps/s this
// matches the paper's 3 s averaging of orientation readings.
const headingWindow = 6

// PDRConfig holds the motion scheme's filter parameters.
type PDRConfig struct {
	Particles     int     // particle count (300 in the paper)
	StepLenSigma  float64 // per-particle relative step-length noise
	HeadingSigma  float64 // per-particle heading noise (radians)
	InitSigma     float64 // initial particle spread around the start
	LandmarkSigma float64 // particle spread after a landmark reset
	ResampleFrac  float64 // resample when effective N falls below this fraction
}

// DefaultPDRConfig returns the parameters used across the evaluation.
func DefaultPDRConfig() PDRConfig {
	return PDRConfig{
		Particles:     particle.DefaultCount,
		StepLenSigma:  0.10,
		HeadingSigma:  0.08,
		InitSigma:     1.0,
		LandmarkSigma: 2.5,
		ResampleFrac:  0.5,
	}
}

// PDR is the motion-based pedestrian-dead-reckoning scheme (Li et al.
// [7] plus UnLoc-style landmarks [12]): it integrates processed step
// events through a particle filter, imposes the map constraints (path
// edges and walls) on particle motion, and re-anchors the belief at
// detected calibration landmarks.
type PDR struct {
	cfg PDRConfig
	w   *world.World
	rnd *rand.Rand
	src *prng.Source // counting source under rnd; nil = unsnapshotable

	filter       *particle.Filter
	near         world.Constraint // stepCloud's scratch
	lastEst      geo.Point
	haveEst      bool
	distLandmark float64
	headings     []float64
	repaired     int
	steps        int
}

// NewPDR creates the motion scheme over world w. The random source
// drives the particle noise and must be dedicated to this scheme for
// reproducibility.
func NewPDR(w *world.World, cfg PDRConfig, rnd *rand.Rand) *PDR {
	return &PDR{cfg: cfg, w: w, rnd: rnd}
}

// Name implements Scheme.
func (p *PDR) Name() string { return NameMotion }

// Reset implements Scheme: particles are re-seeded around the walk's
// start position (real deployments obtain the start from a landmark or
// a first fix; the paper's PDR similarly assumes an anchored start).
func (p *PDR) Reset(start geo.Point) {
	p.filter = particle.New(p.cfg.Particles, start, p.cfg.InitSigma, p.rnd)
	p.lastEst = start
	p.haveEst = true
	p.distLandmark = 0
	p.headings = p.headings[:0]
	p.repaired = 0
	p.steps = 0
}

// RegressionFeatures implements Scheme (Table I: distance from the
// last landmark, corridor width, orientation changing frequency, step
// count error). The paper finds only the first two significant; the
// regression's p-values demonstrate that.
func (p *PDR) RegressionFeatures() []string {
	return []string{FeatDistLandmark, FeatCorridorWidth, FeatOrientFreq, FeatStepErr}
}

// Sensors implements Scheme.
func (p *PDR) Sensors() []string { return []string{SensorIMU} }

// Estimate implements Scheme.
func (p *PDR) Estimate(snap *sensing.Snapshot) Estimate {
	if p.filter == nil {
		return Estimate{OK: false}
	}
	if snap.Step != nil {
		p.propagate(snap)
	}
	if snap.Landmark != nil {
		lm := geo.Pt(snap.Landmark.Pos.X, snap.Landmark.Pos.Y)
		p.filter.Reset(lm, p.cfg.LandmarkSigma)
		p.distLandmark = 0
	}
	effN, ok := p.filter.NormalizeEffectiveN()
	if !ok {
		// Filter collapse (all particles violated the map constraint):
		// re-seed around the last estimate and keep going.
		p.filter.Reset(p.lastEst, p.cfg.LandmarkSigma)
		effN, _ = p.filter.NormalizeEffectiveN()
	}
	if effN < float64(p.cfg.Particles)*p.cfg.ResampleFrac {
		p.filter.Resample()
	}
	est := p.filter.Estimate()
	p.lastEst = est

	return Estimate{Pos: est, OK: true, Features: p.features(est)}
}

// propagate moves the particle cloud by one measured step under the map
// constraint.
func (p *PDR) propagate(snap *sensing.Snapshot) {
	step := snap.Step
	p.steps++
	p.distLandmark += step.LengthM
	p.headings = append(p.headings, step.HeadingR)
	if len(p.headings) > headingWindow {
		p.headings = p.headings[1:]
	}
	if step.FalseStep {
		p.repaired++
	}
	stepCloud(p.filter, &p.near, p.w, p.rnd, p.cfg, step)
}

// stepCloud moves a particle cloud by one measured step under the map
// constraint, in two passes. Every particle first draws its own
// heading and step-length noise, in particle order; then every move is
// checked against the regions and walls near the cloud's box, which
// near holds between calls as scratch. A blocked particle stays put
// with zero weight. PDR and fusion share it.
func stepCloud(f *particle.Filter, near *world.Constraint, w *world.World, rnd *rand.Rand, cfg PDRConfig, step *imu.StepEvent) {
	box := f.Propose(func(pos geo.Point) geo.Point {
		h := step.HeadingR + rnd.NormFloat64()*cfg.HeadingSigma
		l := step.LengthM * (1 + rnd.NormFloat64()*cfg.StepLenSigma)
		if l < 0 {
			l = 0
		}
		return pos.Add(geo.FromHeading(h).Scale(l))
	})
	near.Near(w, box)
	f.Settle(near.Blocks)
}

// features evaluates the motion scheme's data features at the current
// estimate.
func (p *PDR) features(est geo.Point) map[string]float64 {
	return map[string]float64{
		FeatDistLandmark:  p.distLandmark,
		FeatCorridorWidth: p.w.CorridorWidthAt(est),
		FeatOrientFreq:    p.orientFreq(),
		FeatStepErr:       p.stepErrRate(),
	}
}

// orientFreq is the mean absolute heading change per step over the
// recent window, in radians.
func (p *PDR) orientFreq() float64 {
	if len(p.headings) < 2 {
		return 0
	}
	var sum float64
	for i := 1; i < len(p.headings); i++ {
		sum += math.Abs(geo.AngleDiff(p.headings[i], p.headings[i-1]))
	}
	return sum / float64(len(p.headings)-1)
}

// stepErrRate is the fraction of steps the compensation mechanism had
// to repair.
func (p *PDR) stepErrRate() float64 {
	if p.steps == 0 {
		return 0
	}
	return float64(p.repaired) / float64(p.steps)
}

// Spread exposes the particle cloud's RMS spread for diagnostics.
func (p *PDR) Spread() float64 {
	if p.filter == nil {
		return 0
	}
	return p.filter.Spread()
}
