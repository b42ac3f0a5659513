package main

import (
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	bound := 0.05
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, by float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x + by
		}
		return out
	}
	for _, c := range []struct {
		name   string
		better string
		bound  *float64
		a, b   []float64
		want   string
	}{
		{"faster in every pair", "lower", &bound, parent, shift(parent, -10), improved},
		{"noise-level change", "lower", &bound, parent, shift(parent, 1), unchanged},
		{"worse beyond the bound", "lower", &bound, parent, shift(parent, 8), regressed},
		{"higher is better", "higher", &bound, parent, shift(parent, -8), regressed},
		{"higher is better, gain", "higher", &bound, parent, shift(parent, 10), improved},
		{"parent spreads wider than the bound", "lower", &bound,
			[]float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}, shift(parent, 1), unresolved},
		{"wide parent but every change run better", "lower", &bound,
			[]float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}, []float64{70, 71, 72, 73, 74, 75, 76, 77, 78, 79}, improved},
		{"wide parent but every change run worse", "lower", &bound,
			[]float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}, []float64{121, 122, 123, 124, 125, 126, 127, 128, 129, 130}, regressed},
		{"wide parent, higher is better, every change run worse", "higher", &bound,
			[]float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}, []float64{70, 71, 72, 73, 74, 75, 76, 77, 78, 79}, regressed},
		{"unbounded, worse every pair", "lower", nil, parent, shift(parent, 10), regressed},
		{"unbounded, small drift", "lower", nil, parent, shift(parent, 1), unchanged},
		{"five pairs cannot claim a gain", "lower", &bound, parent[:5], shift(parent, -10)[:5], unchanged},
		{"wins only 8 of 10 pairs", "lower", &bound, parent,
			[]float64{90, 91, 89, 90, 92, 88, 90, 91, 110, 110}, unchanged},
	} {
		r := judge("walk", "m", "ms", c.better, c.bound, c.a, c.b)
		if r.verdict != c.want {
			t.Errorf("%s: verdict %s (wins %.2f), want %s", c.name, r.verdict, r.wins, c.want)
		}
	}
}

func TestCompareRefusesDifferentHardware(t *testing.T) {
	spec := &benchSpec{RunSeconds: 20}
	run := func(cpu string) *report {
		return &report{Schema: reportSchema, Workload: wlWalk, Seconds: 20,
			Env:     envInfo{CPUModel: cpu, NProc: 2, GOMAXPROCS: 2, GOOS: "linux", GOARCH: "amd64"},
			Metrics: []metric{{Name: "fail_frac", Unit: "ratio", Value: 0}}}
	}
	if _, err := compareRuns(spec, []*report{run("A")}, []*report{run("A")}); err != nil {
		t.Fatalf("same hardware refused: %v", err)
	}
	_, err := compareRuns(spec, []*report{run("A")}, []*report{run("B")})
	if err == nil || !strings.Contains(err.Error(), "hardware differs") {
		t.Fatalf("different hardware compared: err = %v", err)
	}
}

// runsOf builds one report per value of a single metric.
func runsOf(name string, secs float64, vals ...float64) []*report {
	var rs []*report
	for _, v := range vals {
		rs = append(rs, &report{Schema: reportSchema, Workload: wlWalk, Seconds: secs,
			Metrics: []metric{{Name: name, Unit: "ratio", Value: v}}})
	}
	return rs
}

func TestCompareUsesReportOnlyDirections(t *testing.T) {
	spec := &benchSpec{RunSeconds: 20}
	parent := []float64{0.50, 0.51, 0.49, 0.50, 0.52, 0.48, 0.50, 0.51, 0.49, 0.50}
	lower := []float64{0.30, 0.31, 0.29, 0.30, 0.32, 0.28, 0.30, 0.31, 0.29, 0.30}
	rows, err := compareRuns(spec, runsOf("shared.hit_frac", 20, parent...), runsOf("shared.hit_frac", 20, lower...))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].verdict != regressed {
		t.Fatalf("lower shared.hit_frac judged %+v, want regressed", rows)
	}
	if _, err := compareRuns(spec, runsOf("no.such_metric", 20, 1), runsOf("no.such_metric", 20, 1)); err == nil {
		t.Fatal("a metric without a direction was compared")
	}
}

func TestCompareRefusesOtherRunLengths(t *testing.T) {
	spec := &benchSpec{RunSeconds: 20}
	_, err := compareRuns(spec, runsOf("fail_frac", 5, 0), runsOf("fail_frac", 5, 0))
	if err == nil || !strings.Contains(err.Error(), "run_seconds") {
		t.Fatalf("5-second runs compared against a 20-second spec: err = %v", err)
	}
}
