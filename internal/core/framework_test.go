package core

import (
	"runtime"
	"testing"

	"repro/internal/geo"
	"repro/internal/iodetector"
	"repro/internal/regress"
	"repro/internal/schemes"
	"repro/internal/sensing"
	"repro/internal/telemetry"
)

// fakeScheme is a scriptable scheme for framework tests.
type fakeScheme struct {
	name  string
	pos   geo.Point
	ok    bool
	feats map[string]float64
	reset int
}

func (f *fakeScheme) Name() string                 { return f.name }
func (f *fakeScheme) Reset(geo.Point)              { f.reset++ }
func (f *fakeScheme) RegressionFeatures() []string { return []string{"x"} }
func (f *fakeScheme) Sensors() []string            { return []string{schemes.SensorIMU} }
func (f *fakeScheme) Estimate(*sensing.Snapshot) schemes.Estimate {
	return schemes.Estimate{Pos: f.pos, OK: f.ok, Features: f.feats}
}

// modelFor builds an intercept-free model ŷ = beta·x with residual σ.
func modelFor(scheme string, env EnvClass, beta, sigma float64) *ErrorModel {
	return &ErrorModel{
		Scheme:   scheme,
		Env:      env,
		Features: []string{"x"},
		Reg: &regress.Result{
			Names:    []string{"x"},
			Beta:     []float64{beta},
			ResidStd: sigma,
		},
	}
}

// outdoorSnap is clearly outdoor for IODetector.
func outdoorSnap() *sensing.Snapshot {
	return &sensing.Snapshot{LightLux: 11000, MagVarUT: 0.4}
}

// indoorSnap is clearly indoor.
func indoorSnap() *sensing.Snapshot {
	return &sensing.Snapshot{LightLux: 150, MagVarUT: 3}
}

func twoSchemeFramework(t *testing.T) (*Framework, *fakeScheme, *fakeScheme) {
	t.Helper()
	good := &fakeScheme{name: "good", pos: geo.Pt(1, 1), ok: true, feats: map[string]float64{"x": 1}}
	bad := &fakeScheme{name: "bad", pos: geo.Pt(30, 30), ok: true, feats: map[string]float64{"x": 10}}
	ms := NewModelSet()
	for _, env := range []EnvClass{EnvIndoor, EnvOutdoor} {
		ms.Put(modelFor("good", env, 2, 1)) // predicts 2 m
		ms.Put(modelFor("bad", env, 2, 2))  // predicts 20 m
	}
	fw, err := NewFramework([]schemes.Scheme{good, bad}, ms)
	if err != nil {
		t.Fatal(err)
	}
	return fw, good, bad
}

func TestNewFrameworkValidation(t *testing.T) {
	if _, err := NewFramework(nil, NewModelSet()); err == nil {
		t.Error("no schemes should fail")
	}
	if _, err := NewFramework([]schemes.Scheme{&fakeScheme{name: "s"}}, nil); err == nil {
		t.Error("nil models should fail")
	}
}

func TestFrameworkStepSelectsAndCombines(t *testing.T) {
	fw, _, _ := twoSchemeFramework(t)
	fw.Reset(geo.Pt(0, 0))
	res := fw.Step(outdoorSnap())
	if !res.OK {
		t.Fatal("step should succeed")
	}
	if res.Schemes[res.BestIdx].Name != "good" {
		t.Errorf("selected %s", res.Schemes[res.BestIdx].Name)
	}
	if res.Best != geo.Pt(1, 1) {
		t.Errorf("Best = %v", res.Best)
	}
	// BMA must sit between the schemes, dominated by the good one.
	if res.BMA.Dist(geo.Pt(1, 1)) > res.BMA.Dist(geo.Pt(30, 30)) {
		t.Errorf("BMA %v closer to the bad scheme", res.BMA)
	}
	if res.Env != EnvOutdoor {
		t.Errorf("Env = %v", res.Env)
	}
	if res.Tau <= 0 {
		t.Errorf("Tau = %v", res.Tau)
	}
}

func TestFrameworkEnvironmentSwitch(t *testing.T) {
	fw, _, _ := twoSchemeFramework(t)
	fw.Reset(geo.Pt(0, 0))
	res := fw.Step(indoorSnap())
	if res.Env != EnvIndoor {
		t.Errorf("Env = %v, want indoor", res.Env)
	}
}

func TestFrameworkUnavailableScheme(t *testing.T) {
	fw, good, _ := twoSchemeFramework(t)
	fw.Reset(geo.Pt(0, 0))
	good.ok = false
	res := fw.Step(outdoorSnap())
	if !res.OK {
		t.Fatal("one scheme remains")
	}
	if res.Schemes[res.BestIdx].Name != "bad" {
		t.Error("should fall back to the remaining scheme")
	}
	if res.Schemes[0].Conf != 0 {
		t.Error("unavailable scheme must carry zero confidence")
	}
}

func TestFrameworkAllUnavailable(t *testing.T) {
	fw, good, bad := twoSchemeFramework(t)
	fw.Reset(geo.Pt(0, 0))
	good.ok = false
	bad.ok = false
	res := fw.Step(outdoorSnap())
	if res.OK || res.BestIdx != -1 {
		t.Error("no scheme available should report !OK")
	}
}

func TestFrameworkResetPropagates(t *testing.T) {
	fw, good, bad := twoSchemeFramework(t)
	fw.Reset(geo.Pt(5, 5))
	if good.reset != 1 || bad.reset != 1 {
		t.Error("Reset must reach every scheme")
	}
}

// TestParallelPoolReuseAcrossReset: one framework keeps stepping across
// walks (a server reuses it across Resets) and after Close, and Step
// starts no goroutines. The name dates from the worker pool that once
// lived across Resets; Close is now a no-op and must stay harmless.
func TestParallelPoolReuseAcrossReset(t *testing.T) {
	fw, good, bad := twoSchemeFramework(t)
	fw.Reset(geo.Pt(0, 0))
	before := runtime.NumGoroutine()
	for walk := 1; walk <= 3; walk++ {
		fw.Reset(geo.Pt(float64(walk), 5))
		if good.reset != walk+1 || bad.reset != walk+1 {
			t.Fatalf("walk %d: Reset must reach every scheme (%d, %d resets)", walk, good.reset, bad.reset)
		}
		for i := 0; i < 10; i++ {
			if res := fw.Step(outdoorSnap()); !res.OK {
				t.Fatalf("walk %d epoch %d: step failed", walk, i)
			}
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("stepping started goroutines: %d -> %d", before, n)
	}
	fw.Close()
	fw.Close() // idempotent
	if res := fw.Step(outdoorSnap()); !res.OK {
		t.Fatal("step after Close failed")
	}
}

func TestFrameworkMissingModelNeutralPrediction(t *testing.T) {
	s := &fakeScheme{name: "orphan", pos: geo.Pt(2, 2), ok: true, feats: map[string]float64{"x": 1}}
	ms := NewModelSet()
	ms.Put(modelFor("someone-else", EnvOutdoor, 1, 1))
	fw, err := NewFramework([]schemes.Scheme{s}, ms)
	if err != nil {
		t.Fatal(err)
	}
	fw.Reset(geo.Pt(0, 0))
	res := fw.Step(outdoorSnap())
	if !res.OK {
		t.Fatal("orphan scheme should still participate")
	}
	if res.Schemes[0].PredErr != 10 || res.Schemes[0].Sigma != 5 {
		t.Errorf("neutral prediction = %v ± %v", res.Schemes[0].PredErr, res.Schemes[0].Sigma)
	}
}

func TestGPSGating(t *testing.T) {
	gps := &fakeScheme{name: schemes.NameGPS, pos: geo.Pt(0, 0), ok: true, feats: map[string]float64{}}
	other := &fakeScheme{name: "other", pos: geo.Pt(1, 1), ok: true, feats: map[string]float64{"x": 1}}
	ms := NewModelSet()
	// GPS: intercept-only 13.5 m outdoor model.
	ms.Put(&ErrorModel{
		Scheme: schemes.NameGPS, Env: EnvOutdoor, Features: nil,
		Reg: &regress.Result{HasIntercept: true, Intercept: 13.5, ResidStd: 9.4},
	})
	ms.Put(modelFor("other", EnvOutdoor, 2, 1)) // predicts 2 m
	ms.Put(modelFor("other", EnvIndoor, 2, 1))
	fw, err := NewFramework([]schemes.Scheme{gps, other}, ms)
	if err != nil {
		t.Fatal(err)
	}
	fw.Reset(geo.Pt(0, 0))

	// Before any step (no predictions yet) GPS may be wanted outdoors.
	if !fw.GPSWanted() {
		t.Error("fresh outdoor framework should allow GPS")
	}
	// After a step where the other scheme predicts 2 m < 13.5 m, GPS
	// should be gated off.
	fw.Step(outdoorSnap())
	if fw.GPSWanted() {
		t.Error("GPS should be off when another scheme predicts better")
	}
	// Degrade the other scheme's features → prediction 40 m > 13.5 m.
	other.feats = map[string]float64{"x": 20}
	fw.Step(outdoorSnap())
	if !fw.GPSWanted() {
		t.Error("GPS should be on when it is predicted best")
	}
	// Indoors GPS is always off.
	fw.Step(indoorSnap())
	fw.Step(indoorSnap())
	if fw.GPSWanted() {
		t.Error("GPS must be off indoors")
	}
	// Gating disabled → always on.
	fw2, _ := NewFramework([]schemes.Scheme{gps, other}, ms, WithGPSGating(false))
	fw2.Reset(geo.Pt(0, 0))
	fw2.Step(indoorSnap())
	if !fw2.GPSWanted() {
		t.Error("disabled gating should always want GPS")
	}
}

// TestGPSGatingForgetsUnavailableSchemes is the regression for the
// stale-lastPred bug: a scheme that left coverage kept its last
// predicted error forever, permanently gating GPS off.
func TestGPSGatingForgetsUnavailableSchemes(t *testing.T) {
	gps := &fakeScheme{name: schemes.NameGPS, pos: geo.Pt(0, 0), ok: true, feats: map[string]float64{}}
	other := &fakeScheme{name: "other", pos: geo.Pt(1, 1), ok: true, feats: map[string]float64{"x": 1}}
	ms := NewModelSet()
	ms.Put(&ErrorModel{
		Scheme: schemes.NameGPS, Env: EnvOutdoor, Features: nil,
		Reg: &regress.Result{HasIntercept: true, Intercept: 13.5, ResidStd: 9.4},
	})
	ms.Put(modelFor("other", EnvOutdoor, 2, 1)) // predicts 2 m while available
	ms.Put(modelFor("other", EnvIndoor, 2, 1))
	fw, err := NewFramework([]schemes.Scheme{gps, other}, ms)
	if err != nil {
		t.Fatal(err)
	}
	fw.Reset(geo.Pt(0, 0))

	// While the other scheme predicts 2 m < 13.5 m, GPS is gated off.
	fw.Step(outdoorSnap())
	if fw.GPSWanted() {
		t.Fatal("GPS should be off while a better scheme is available")
	}
	// The other scheme leaves coverage: its stale 2 m prediction must
	// not keep biasing the gate — GPS is now the only candidate.
	other.ok = false
	fw.Step(outdoorSnap())
	if !fw.GPSWanted() {
		t.Error("stale prediction of an unavailable scheme must not gate GPS off")
	}
	// Coverage returns: gating resumes from the fresh prediction.
	other.ok = true
	fw.Step(outdoorSnap())
	if fw.GPSWanted() {
		t.Error("gating should resume when the scheme becomes available again")
	}
}

func TestModelSetLookupFallback(t *testing.T) {
	ms := NewModelSet()
	m := modelFor("s", EnvOutdoor, 1, 1)
	ms.Put(m)
	if got := ms.Lookup("s", EnvIndoor); got != m {
		t.Error("Lookup should fall back to the other environment")
	}
	if ms.Lookup("nope", EnvIndoor) != nil {
		t.Error("unknown scheme should be nil")
	}
	if got := ms.Get("s", EnvIndoor); got != nil {
		t.Error("Get must not fall back")
	}
	names := ms.Schemes()
	if len(names) != 1 || names[0] != "s" {
		t.Errorf("Schemes = %v", names)
	}
}

func TestErrorModelPredictFloorsAndSigma(t *testing.T) {
	m := modelFor("s", EnvIndoor, -5, 0) // negative prediction, zero sigma
	mu, sigma := m.Predict(map[string]float64{"x": 1})
	if mu != minPredictedErr {
		t.Errorf("mu = %v, want floor", mu)
	}
	if sigma != 0.1 {
		t.Errorf("sigma = %v, want fallback", sigma)
	}
}

func TestEnvClassString(t *testing.T) {
	if EnvIndoor.String() != "indoor" || EnvOutdoor.String() != "outdoor" || EnvClass(0).String() != "unknown" {
		t.Error("EnvClass strings wrong")
	}
}

// TestResetPreservesConfiguredIODetector is the regression for the
// Reset bug: Reset rebuilt the IODetector with DefaultConfig, silently
// discarding a detector installed via WithIODetector. The custom
// detector here inverts the light thresholds so bright light reads as
// indoor — behavior only a preserved config can produce after Reset.
func TestResetPreservesConfiguredIODetector(t *testing.T) {
	s := &fakeScheme{name: "s", pos: geo.Pt(1, 1), ok: true, feats: map[string]float64{"x": 1}}
	ms := NewModelSet()
	ms.Put(modelFor("s", EnvIndoor, 2, 1))
	ms.Put(modelFor("s", EnvOutdoor, 2, 1))
	// Absurdly high DimLux: every light level votes indoor.
	cfg := iodetector.DefaultConfig()
	cfg.DaylightLux = 1e12
	cfg.DimLux = 1e11
	cfg.Votes = 1
	fw, err := NewFramework([]schemes.Scheme{s}, ms, WithIODetector(iodetector.New(cfg)))
	if err != nil {
		t.Fatal(err)
	}
	fw.Reset(geo.Pt(0, 0))
	if res := fw.Step(outdoorSnap()); res.Env != EnvIndoor {
		t.Fatalf("custom detector ignored before reset: env = %v", res.Env)
	}
	fw.Reset(geo.Pt(0, 0))
	if res := fw.Step(outdoorSnap()); res.Env != EnvIndoor {
		t.Fatalf("Reset discarded the configured IODetector: env = %v", res.Env)
	}
}

// TestResetClearsIODetectorState: the preserved detector must still
// start the next walk fresh (no hysteresis carry-over).
func TestResetClearsIODetectorState(t *testing.T) {
	fw, _, _ := twoSchemeFramework(t)
	fw.Reset(geo.Pt(0, 0))
	for i := 0; i < 5; i++ {
		fw.Step(indoorSnap())
	}
	if fw.iod.State() != iodetector.Indoor {
		t.Fatalf("detector state = %v, want indoor", fw.iod.State())
	}
	fw.Reset(geo.Pt(0, 0))
	if fw.iod.State() != iodetector.Unknown {
		t.Fatalf("Reset left detector state %v, want unknown", fw.iod.State())
	}
}

// TestStepEmitsEpochTrace verifies the observer contract: one trace
// per Step carrying the environment, gating decision, and per-scheme
// self-assessment, with timing fields populated.
func TestStepEmitsEpochTrace(t *testing.T) {
	fw, good, _ := twoSchemeFramework(t)
	var col telemetry.Collector
	WithObserver(&col)(fw)
	fw.Reset(geo.Pt(0, 0))

	good.ok = false
	snap := outdoorSnap()
	snap.Epoch = 7
	fw.Step(snap)

	traces := col.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Epoch != 7 || tr.Env != "outdoor" || !tr.OK {
		t.Fatalf("trace header %+v", tr)
	}
	if tr.Best != "bad" {
		t.Fatalf("trace best = %q, want bad (good is unavailable)", tr.Best)
	}
	if len(tr.Schemes) != 2 {
		t.Fatalf("trace schemes = %d, want 2", len(tr.Schemes))
	}
	if tr.Schemes[0].Scheme != "good" || tr.Schemes[0].Available {
		t.Fatalf("scheme 0 = %+v, want unavailable good", tr.Schemes[0])
	}
	st := tr.Schemes[1]
	if st.Scheme != "bad" || !st.Available || st.PredErr != 20 || st.Conf <= 0 || st.Weight != 1 {
		t.Fatalf("scheme 1 = %+v", st)
	}
	if st.PredictNS < 0 || st.EstimateNS < 0 || tr.StepNS <= 0 || tr.Tau != 20 {
		t.Fatalf("trace timings %+v", tr)
	}
	if tr.PredictNS != st.PredictNS {
		t.Fatalf("total predict %d != sum of per-scheme %d", tr.PredictNS, st.PredictNS)
	}
}

// TestParallelStepTelemetry: with every scheme available, every trace
// slot is named, available and timed. The name dates from when pool
// workers wrote their own slots; the one loop in step now fills them.
func TestParallelStepTelemetry(t *testing.T) {
	var got *telemetry.EpochTrace
	obs := telemetry.ObserverFunc(func(tr *telemetry.EpochTrace) { got = tr })
	good := &fakeScheme{name: "good", pos: geo.Pt(1, 1), ok: true, feats: map[string]float64{"x": 1}}
	bad := &fakeScheme{name: "bad", pos: geo.Pt(30, 30), ok: true, feats: map[string]float64{"x": 10}}
	ms := NewModelSet()
	ms.Put(modelFor("good", EnvOutdoor, 2, 1))
	ms.Put(modelFor("bad", EnvOutdoor, 2, 2))
	fw, err := NewFramework([]schemes.Scheme{good, bad}, ms, WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	fw.Reset(geo.Pt(0, 0))
	fw.Step(outdoorSnap())
	if got == nil {
		t.Fatal("no trace emitted")
	}
	if len(got.Schemes) != 2 {
		t.Fatalf("trace has %d scheme entries", len(got.Schemes))
	}
	for i, st := range got.Schemes {
		if st.Scheme == "" || st.EstimateNS < 0 || !st.Available {
			t.Fatalf("scheme trace %d incomplete: %+v", i, st)
		}
	}
	if got.StepNS <= 0 {
		t.Fatalf("StepNS = %d", got.StepNS)
	}
}

// stepBaselineAllocs is what one observer-off Step allocates with the
// test's deterministic fake schemes: the StepResult.Schemes slice plus
// one feature vector per available scheme inside ErrorModel.Predict.
// The telemetry instrumentation must not move this number — that is
// the "no-op observer path adds zero allocations" guardrail (the
// companion wall-time guardrail lives in BenchmarkFrameworkStep).
const stepBaselineAllocs = 3

func TestStepNoObserverAddsNoAllocations(t *testing.T) {
	fw, _, _ := twoSchemeFramework(t)
	fw.Reset(geo.Pt(0, 0))
	snap := outdoorSnap()
	fw.Step(snap) // warm up lastPred so map inserts don't count
	got := testing.AllocsPerRun(200, func() { fw.Step(snap) })
	if got != stepBaselineAllocs {
		t.Fatalf("observer-off Step allocates %v objects/op, want %d", got, stepBaselineAllocs)
	}
}
