package core

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/schemes"
	"repro/internal/sensing"
	"repro/internal/telemetry"
)

// panicScheme panics on Estimate when armed.
type panicScheme struct {
	fakeScheme
	armed bool
}

func (p *panicScheme) Estimate(snap *sensing.Snapshot) schemes.Estimate {
	if p.armed {
		panic("chaos: injected scheme panic")
	}
	return p.fakeScheme.Estimate(snap)
}

func chaosFramework(t *testing.T, extra schemes.Scheme, opts ...Option) *Framework {
	t.Helper()
	good := &fakeScheme{name: "good", pos: geo.Pt(1, 1), ok: true, feats: map[string]float64{"x": 1}}
	ms := NewModelSet()
	for _, env := range []EnvClass{EnvIndoor, EnvOutdoor} {
		ms.Put(modelFor("good", env, 2, 1))
		ms.Put(modelFor(extra.Name(), env, 2, 2))
	}
	fw, err := NewFramework([]schemes.Scheme{good, extra}, ms, opts...)
	if err != nil {
		t.Fatal(err)
	}
	fw.Reset(geo.Pt(0, 0))
	return fw
}

func TestSchemePanicRecovered(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := NewHealth(reg)
	bad := &panicScheme{fakeScheme: fakeScheme{name: "bad", pos: geo.Pt(2, 2), ok: true, feats: map[string]float64{"x": 1}}, armed: true}
	col := &telemetry.Collector{}
	fw := chaosFramework(t, bad, WithHealth(h), WithObserver(col))

	res := fw.Step(outdoorSnap())
	if !res.OK {
		t.Fatal("surviving scheme should keep the epoch OK")
	}
	for _, sr := range res.Schemes {
		if sr.Name == "bad" && sr.Available {
			t.Fatal("panicked scheme must be unavailable")
		}
	}
	if got := h.SchemePanics.Value(); got != 1 {
		t.Fatalf("scheme_panics_total = %d, want 1", got)
	}
	traces := col.Traces()
	if len(traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(traces))
	}
	var sawPanicked bool
	for _, st := range traces[0].Schemes {
		if st.Scheme == "bad" && st.Panicked {
			sawPanicked = true
		}
	}
	if !sawPanicked {
		t.Fatal("trace should flag the panicked scheme")
	}

	// A scheme that recovers keeps participating the next epoch.
	bad.armed = false
	res = fw.Step(outdoorSnap())
	for _, sr := range res.Schemes {
		if sr.Name == "bad" && !sr.Available {
			t.Fatal("recovered scheme should be available again")
		}
	}
}

// TestSchemePanicRecoveredParallel: a scheme that panics every epoch
// stays contained epoch after epoch. The name dates from when a worker
// pool ran the schemes; they now run in one loop, and the recover in
// schemeEpoch is what keeps the survivor and counts each panic.
func TestSchemePanicRecoveredParallel(t *testing.T) {
	h := NewHealth(telemetry.NewRegistry())
	bad := &panicScheme{fakeScheme: fakeScheme{name: "bad", pos: geo.Pt(2, 2), ok: true, feats: map[string]float64{"x": 1}}, armed: true}
	fw := chaosFramework(t, bad, WithHealth(h))
	for i := 1; i <= 10; i++ {
		if res := fw.Step(outdoorSnap()); !res.OK {
			t.Fatalf("epoch %d: lost the surviving scheme", i)
		}
		if got := h.SchemePanics.Value(); got != int64(i) {
			t.Fatalf("epoch %d: scheme_panics_total = %d, want %d", i, got, i)
		}
	}
}

func TestNaNEstimateQuarantined(t *testing.T) {
	for _, tc := range []struct {
		name string
		pos  geo.Point
		feat float64
	}{
		{"nan-pos", geo.Pt(math.NaN(), 3), 1},
		{"inf-pos", geo.Pt(3, math.Inf(1)), 1},
		{"nan-feature", geo.Pt(3, 3), math.NaN()}, // poisons PredErr via the model
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			h := NewHealth(reg)
			bad := &fakeScheme{name: "bad", pos: tc.pos, ok: true, feats: map[string]float64{"x": tc.feat}}
			fw := chaosFramework(t, bad, WithHealth(h))

			res := fw.Step(outdoorSnap())
			if !res.OK {
				t.Fatal("good scheme should keep the epoch OK")
			}
			for _, sr := range res.Schemes {
				if sr.Name == "bad" && sr.Available {
					t.Fatal("poisoned scheme must be quarantined")
				}
			}
			if !finitePt(res.Best) || !finitePt(res.BMA) {
				t.Fatalf("non-finite result escaped: best=%v bma=%v", res.Best, res.BMA)
			}
			if got := h.Quarantined.Value(); got != 1 {
				t.Fatalf("quarantined_estimates_total = %d, want 1", got)
			}
		})
	}
}

func TestAllSchemesDownFallsBackToLastGood(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := NewHealth(reg)
	good := &fakeScheme{name: "good", pos: geo.Pt(5, 7), ok: true, feats: map[string]float64{"x": 1}}
	bad := &fakeScheme{name: "bad", pos: geo.Pt(2, 2), ok: true, feats: map[string]float64{"x": 1}}
	ms := NewModelSet()
	for _, env := range []EnvClass{EnvIndoor, EnvOutdoor} {
		ms.Put(modelFor("good", env, 2, 1))
		ms.Put(modelFor("bad", env, 2, 2))
	}
	fw, err := NewFramework([]schemes.Scheme{good, bad}, ms, WithHealth(h))
	if err != nil {
		t.Fatal(err)
	}
	fw.Reset(geo.Pt(0, 0))

	// Epoch 1: healthy; the framework records a last good estimate.
	res := fw.Step(outdoorSnap())
	if !res.OK {
		t.Fatal("healthy epoch should be OK")
	}
	lastGood := res.BMA

	// Epoch 2: everything dies.
	good.ok, bad.ok = false, false
	res = fw.Step(outdoorSnap())
	if res.OK {
		t.Fatal("epoch with no schemes must not claim OK")
	}
	if !res.Fallback {
		t.Fatal("fallback flag should be set")
	}
	if res.BMA != lastGood || res.Best != lastGood {
		t.Fatalf("fallback position %v, want last good %v", res.BMA, lastGood)
	}
	if got := h.Fallbacks.Value(); got != 1 {
		t.Fatalf("fallback_epochs_total = %d, want 1", got)
	}

	// Before any good epoch, Reset's start position is the fallback.
	fw.Reset(geo.Pt(9, 9))
	res = fw.Step(outdoorSnap())
	if res.OK || res.BMA != geo.Pt(9, 9) {
		t.Fatalf("fresh walk with no schemes should answer the start, got ok=%v pos=%v", res.OK, res.BMA)
	}
}

func TestApplyWeightsNonFiniteConfidences(t *testing.T) {
	mk := func(predErr, sigma float64) []SchemeResult {
		return []SchemeResult{
			{Name: "a", Pos: geo.Pt(1, 1), Available: true, PredErr: predErr, Sigma: sigma},
			{Name: "b", Pos: geo.Pt(3, 3), Available: true, PredErr: 2, Sigma: 1},
		}
	}
	for _, tc := range []struct {
		name           string
		predErr, sigma float64
		tau            float64
	}{
		{"nan-prederr", math.NaN(), 1, 2},
		{"inf-prederr", math.Inf(1), 1, 2},
		{"nan-sigma", 2, math.NaN(), 2},
		{"nan-tau", 2, 1, math.NaN()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := mk(tc.predErr, tc.sigma)
			ApplyWeights(rs, tc.tau, WeightPrecision, PruneFrac)
			for _, r := range rs {
				if math.IsNaN(r.Weight) || math.IsInf(r.Weight, 0) {
					t.Fatalf("non-finite weight for %s: %v", r.Name, r.Weight)
				}
			}
			if pos, ok := CombineBMA(rs); ok && !finitePt(pos) {
				t.Fatalf("BMA emitted non-finite position %v", pos)
			}
		})
	}

	// All-zero confidences (tau far below every prediction): weights
	// must fall back to uniform, never NaN.
	rs := mk(50, 0.1)
	rs[1].PredErr, rs[1].Sigma = 60, 0.1
	ApplyWeights(rs, 0.001, WeightPrecision, PruneFrac)
	pos, ok := CombineBMA(rs)
	if !ok || !finitePt(pos) {
		t.Fatalf("all-zero confidences: BMA = %v ok=%v, want finite uniform average", pos, ok)
	}
}
