package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/geo"
	"repro/internal/iodetector"
	"repro/internal/schemes"
	"repro/internal/sensing"
	"repro/internal/sharedcompute"
	"repro/internal/telemetry"
)

// StepResult is everything UniLoc computes for one sensing epoch.
type StepResult struct {
	Epoch int
	Env   EnvClass // IODetector's classification this epoch
	Tau   float64  // adaptive confidence threshold

	Schemes []SchemeResult // aligned with the framework's scheme list

	// Best is the UniLoc1 output: the position of the
	// highest-confidence scheme. BestIdx indexes Schemes (-1 if no
	// scheme was available).
	Best    geo.Point
	BestIdx int

	// BMA is the UniLoc2 output: the locally-weighted BMA position.
	BMA geo.Point

	// OK reports whether at least one scheme was available. When
	// false, Best and BMA may still carry the framework's last good
	// estimate (see Fallback) so consumers always have a finite
	// position to show — but it is dead reckoning of degree zero and
	// must not be mistaken for a fresh fix.
	OK bool

	// Fallback reports that no scheme survived this epoch and Best/BMA
	// were answered from the last good estimate.
	Fallback bool
}

// Option configures a Framework.
type Option func(*Framework)

// FrameworkFactory builds a fresh, independent Framework. Servers that
// host many users concurrently (internal/offload) call the factory
// once per session so that no particle-filter, IODetector, or
// gating state is shared between walks. Implementations must be safe
// for concurrent use; the frameworks they return need not be (each
// session drives its framework from a single goroutine).
type FrameworkFactory func() (*Framework, error)

// WithIODetector replaces the default indoor/outdoor detector.
func WithIODetector(d *iodetector.Detector) Option {
	return func(f *Framework) { f.iod = d }
}

// WithGPSGating enables or disables the GPS energy-gating decision
// (§IV-C). It defaults to enabled.
func WithGPSGating(on bool) Option {
	return func(f *Framework) { f.gpsGating = on }
}

// WithWeighting overrides the BMA weighting mode (ablations).
func WithWeighting(mode WeightMode) Option {
	return func(f *Framework) { f.weightMode = mode }
}

// WithPruneFrac overrides the confidence-pruning threshold (0 disables
// pruning; see PruneFrac).
func WithPruneFrac(frac float64) Option {
	return func(f *Framework) { f.pruneFrac = frac }
}

// WithObserver attaches a telemetry observer: Step emits one
// structured telemetry.EpochTrace per epoch — per-scheme estimate and
// error-prediction durations, environment classification, the gating
// decision, and the full self-assessment state (availability,
// predicted error, confidence, weight per scheme). A nil observer
// disables tracing; the untraced path takes no timestamps and
// allocates nothing extra (see BenchmarkFrameworkStep).
func WithObserver(o telemetry.Observer) Option {
	return func(f *Framework) { f.obs = o }
}

// WithPprofLabels enables runtime/pprof labels around each scheme's
// epoch work, so CPU and goroutine profiles of a busy server attribute
// samples to scheme names ("scheme" label; the offload layer adds a
// session label around the whole step). Off by default: label push/pop
// costs a few allocations per scheme per epoch, which would break the
// zero-alloc untraced path.
func WithPprofLabels(on bool) Option {
	return func(f *Framework) { f.pprofLabels = on }
}

// Framework is the UniLoc runtime: N schemes stepped in canonical order
// each epoch, one error model per scheme per environment, confidence
// computation, and the two ensemble outputs.
type Framework struct {
	schemes []schemes.Scheme
	models  *ModelSet
	iod     *iodetector.Detector

	gpsGating   bool
	weightMode  WeightMode
	pruneFrac   float64
	lastPred    map[string]float64 // last predicted error per scheme, for gating
	lastEnv     EnvClass
	obs         telemetry.Observer // nil = tracing off
	health      *Health            // failure-containment counters; nil = uncounted
	pprofLabels bool               // wrap scheme work in pprof labels

	// lastGood is the most recent finite ensemble output, answered
	// (with OK=false) on epochs where every scheme failed. Reset seeds
	// it with the walk's start position, which is known by contract.
	lastGood    geo.Point
	hasLastGood bool
}

// NewFramework builds a framework over the given schemes and trained
// models.
func NewFramework(ss []schemes.Scheme, models *ModelSet, opts ...Option) (*Framework, error) {
	if len(ss) == 0 {
		return nil, fmt.Errorf("core: framework needs at least one scheme")
	}
	if models == nil {
		return nil, fmt.Errorf("core: framework needs a model set")
	}
	f := &Framework{
		schemes:    ss,
		models:     models,
		iod:        iodetector.New(iodetector.DefaultConfig()),
		gpsGating:  true,
		weightMode: WeightPrecision,
		pruneFrac:  PruneFrac,
		lastPred:   make(map[string]float64),
		lastEnv:    EnvOutdoor,
	}
	for _, o := range opts {
		o(f)
	}
	return f, nil
}

// Schemes returns the framework's scheme list.
func (f *Framework) Schemes() []schemes.Scheme { return f.schemes }

// SetSharedCompute forwards the server's cross-session shared-compute
// cache to every scheme that can consume one
// (schemes.SharedComputeUser); nil restores private computation.
// Shared values are canonical and misses fall back to local compute of
// the same float sequence, so this never changes a Step result — only
// how many sessions pay for it. Must not be called concurrently with
// Step (the session manager attaches it before the first Reset).
func (f *Framework) SetSharedCompute(c *sharedcompute.Cache) {
	for _, s := range f.schemes {
		if u, ok := s.(schemes.SharedComputeUser); ok {
			u.SetSharedCompute(c)
		}
	}
}

// Models returns the framework's model set.
func (f *Framework) Models() *ModelSet { return f.models }

// SetObserver replaces the framework's telemetry observer after
// construction (nil disables tracing). The offload session manager
// uses this to attach per-session span bridges to factory-built
// frameworks. Must not be called concurrently with Step.
func (f *Framework) SetObserver(o telemetry.Observer) { f.obs = o }

// Observer returns the attached telemetry observer (nil = tracing
// off).
func (f *Framework) Observer() telemetry.Observer { return f.obs }

// SetPprofLabels reconfigures per-scheme pprof labeling after
// construction (see WithPprofLabels). Must not be called concurrently
// with Step.
func (f *Framework) SetPprofLabels(on bool) { f.pprofLabels = on }

// Reset prepares all schemes for a new walk starting near start. The
// configured IODetector is kept (its runtime state is cleared, its
// thresholds survive) — rebuilding it here would silently discard a
// detector installed via WithIODetector.
func (f *Framework) Reset(start geo.Point) {
	for _, s := range f.schemes {
		s.Reset(start)
	}
	f.iod.Reset()
	f.lastPred = make(map[string]float64)
	f.lastEnv = EnvOutdoor
	f.lastGood = start
	f.hasLastGood = true
}

// Close releases nothing: a Framework holds no goroutines or other
// resources beyond its memory. It is kept, as a no-op, only because
// the serving benchmark (bench/check.go) still calls it.
func (f *Framework) Close() {}

// GPSWanted implements the GPS gating decision for the next epoch
// (§IV-C): GPS is off indoors; outdoors it is enabled only when its
// (sensor-free) predicted error β₀ is the smallest among the schemes'
// most recent predicted errors. With gating disabled it always returns
// true.
func (f *Framework) GPSWanted() bool {
	if !f.gpsGating {
		return true
	}
	if f.lastEnv == EnvIndoor {
		return false
	}
	gpsModel := f.models.Lookup(schemes.NameGPS, EnvOutdoor)
	if gpsModel == nil {
		return false
	}
	gpsErr, _ := gpsModel.Predict(nil)
	for name, pred := range f.lastPred {
		if name == schemes.NameGPS {
			continue
		}
		if pred < gpsErr {
			return false
		}
	}
	return true
}

// Step processes one sensing epoch through every scheme, predicts each
// scheme's error from its real-time features, computes confidences and
// both ensemble outputs. With an observer attached (WithObserver) it
// also emits one telemetry.EpochTrace; without one, the trace branches
// reduce to nil checks — no timestamps, no extra allocations.
func (f *Framework) Step(snap *sensing.Snapshot) StepResult {
	if f.obs == nil {
		return f.step(snap, nil)
	}
	tr := &telemetry.EpochTrace{
		Epoch:   snap.Epoch,
		Schemes: make([]telemetry.SchemeTrace, len(f.schemes)),
	}
	start := time.Now()
	tr.StartMono = start // anchor for span reconstruction
	res := f.step(snap, tr)
	tr.StepNS = time.Since(start).Nanoseconds()
	tr.Env = res.Env.String()
	tr.Tau = res.Tau
	tr.OK = res.OK
	tr.Fallback = res.Fallback
	if res.BestIdx >= 0 {
		tr.Best = res.Schemes[res.BestIdx].Name
	}
	// The gating decision the phone would act on next epoch (§IV-C).
	tr.GPSWanted = f.GPSWanted()
	for i, sr := range res.Schemes {
		st := &tr.Schemes[i]
		st.Scheme = sr.Name
		st.Available = sr.Available
		st.PredErr = sr.PredErr
		st.Sigma = sr.Sigma
		st.Conf = sr.Conf
		st.Weight = sr.Weight
		tr.PredictNS += st.PredictNS
	}
	f.obs.ObserveEpoch(tr)
	return res
}

// step is the shared epoch pipeline; tr is nil when tracing is off.
func (f *Framework) step(snap *sensing.Snapshot, tr *telemetry.EpochTrace) StepResult {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	// Environment classification from the low-power sensors.
	env := EnvOutdoor
	switch f.iod.Update(snap.LightLux, snap.MagVarUT, snap.Cell) {
	case iodetector.Indoor:
		env = EnvIndoor
	case iodetector.Outdoor:
		env = EnvOutdoor
	default:
		env = f.lastEnv
	}
	f.lastEnv = env
	if tr != nil {
		tr.ClassifyNS = time.Since(t0).Nanoseconds()
	}

	res := StepResult{
		Epoch:   snap.Epoch,
		Env:     env,
		Schemes: make([]SchemeResult, len(f.schemes)),
		BestIdx: -1,
	}

	for i := range f.schemes {
		f.runScheme(i, snap, tr, res.Schemes)
	}
	for i, s := range f.schemes {
		if res.Schemes[i].Available {
			f.lastPred[s.Name()] = res.Schemes[i].PredErr
		} else {
			// A scheme that produced no estimate this epoch must not
			// keep its last prediction alive: a stale entry would bias
			// the GPSWanted comparison forever (e.g. WiFi leaves
			// coverage but its old 2 m prediction keeps GPS gated off).
			delete(f.lastPred, s.Name())
		}
	}

	if tr != nil {
		t0 = time.Now()
	}
	res.Tau = Tau(res.Schemes)
	ApplyWeights(res.Schemes, res.Tau, f.weightMode, f.pruneFrac)

	if idx, ok := SelectBest(res.Schemes); ok {
		res.BestIdx = idx
		res.Best = res.Schemes[idx].Pos
		res.OK = true
	}
	if bma, ok := CombineBMA(res.Schemes); ok && finitePt(bma) {
		res.BMA = bma
	} else if res.OK {
		res.BMA = res.Best
	}
	// Defense in depth: quarantine upstream keeps non-finite positions
	// out of the ensemble, but a combination bug must still never
	// escape as a NaN Result.
	if res.OK && !finitePt(res.Best) {
		res.OK = false
		res.BestIdx = -1
	}
	if res.OK {
		f.lastGood = res.BMA
		f.hasLastGood = true
	} else if f.hasLastGood {
		// Graceful degradation: every scheme failed (outage, panic,
		// quarantine). Answer the last good position with OK=false so
		// consumers degrade to "stale but finite" instead of NaN.
		res.Best = f.lastGood
		res.BMA = f.lastGood
		res.Fallback = true
		f.health.fellBack()
	}
	if tr != nil {
		tr.CombineNS = time.Since(t0).Nanoseconds()
	}
	return res
}

// runScheme executes one scheme's epoch work — Estimate plus the error
// prediction from its real-time features — and writes the result into
// out[i] (and its timings into tr.Schemes[i] when tracing).
// Gating-state (lastPred) updates stay with the caller.
func (f *Framework) runScheme(i int, snap *sensing.Snapshot, tr *telemetry.EpochTrace, out []SchemeResult) {
	if f.pprofLabels {
		// Label push/pop allocates, so this wrapper only exists when the
		// operator asked for labeled profiles (WithPprofLabels).
		pprof.Do(context.Background(), pprof.Labels("scheme", f.schemes[i].Name()),
			func(context.Context) { f.schemeEpoch(i, snap, tr, out) })
		return
	}
	f.schemeEpoch(i, snap, tr, out)
}

// schemeEpoch is runScheme's body, shared by the labeled and plain
// paths.
func (f *Framework) schemeEpoch(i int, snap *sensing.Snapshot, tr *telemetry.EpochTrace, out []SchemeResult) {
	s := f.schemes[i]
	// A panicking scheme becomes an unavailable scheme — never a
	// torn-down walk or a dead server. The recover lives here, inside
	// the unit of work, so the other schemes still run this epoch.
	defer func() {
		if r := recover(); r != nil {
			out[i] = SchemeResult{Name: s.Name()}
			f.health.panicRecovered()
			if tr != nil {
				tr.Schemes[i].Panicked = true
			}
		}
	}()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
		if !tr.StartMono.IsZero() {
			// Offset from the step start, so the span tracer can place
			// this scheme's execution on the epoch timeline.
			tr.Schemes[i].StartNS = t0.Sub(tr.StartMono).Nanoseconds()
		}
	}
	est := s.Estimate(snap)
	if tr != nil {
		tr.Schemes[i].EstimateNS = time.Since(t0).Nanoseconds()
	}
	sr := SchemeResult{Name: s.Name(), Pos: est.Pos, Available: est.OK}
	if est.OK {
		if tr != nil {
			t0 = time.Now()
		}
		if m := f.models.Lookup(s.Name(), f.lastEnv); m != nil {
			sr.PredErr, sr.Sigma = m.Predict(est.Features)
		} else {
			// No model: neutral prediction so the scheme still
			// participates rather than silently vanishing.
			sr.PredErr, sr.Sigma = 10, 5
		}
		if tr != nil {
			tr.Schemes[i].PredictNS = time.Since(t0).Nanoseconds()
		}
	}
	if sr.Available && !usable(&sr) {
		// Quarantine: a NaN/Inf position or error prediction entering
		// τ or the weight normalization would poison every scheme's
		// weight, not just this one's. Discard the estimate and treat
		// the scheme as unavailable for the epoch.
		sr = SchemeResult{Name: sr.Name}
		f.health.quarantined()
		if tr != nil {
			tr.Schemes[i].Quarantined = true
		}
	}
	out[i] = sr
}
