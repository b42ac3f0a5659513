package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the program reads: the run
// length and the metric names, units and bounds a run reports.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory or its
// parent, so the benchmark runs both from the repository root and from
// its own directory.
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// lookup returns the spec entry for a metric name from either list.
func (s *benchSpec) lookup(name string) (specMetric, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range s.PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return specMetric{}, false
}

// metric is one measured value. N is the number of samples behind it
// (percentiles, medians and means); Q is the percentile it reads, and
// Supported whether at least ten samples lie beyond that percentile.
type metric struct {
	Name      string  `json:"name"`
	Unit      string  `json:"unit"`
	Value     float64 `json:"value"`
	N         int     `json:"n,omitempty"`
	Q         float64 `json:"q,omitempty"`
	Supported *bool   `json:"supported,omitempty"`
}

// dist summarizes one timing distribution: its median and the highest
// percentile with at least ten samples beyond it.
type dist struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailQ float64 `json:"tail_q"`
	Tail  float64 `json:"tail"`
}

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is everything one invocation measured and checked; -out writes
// it as JSON and `compare` reads it back.
type report struct {
	Schema    string       `json:"schema"`
	Workload  string       `json:"workload"`
	Seed      int64        `json:"seed"`
	Seconds   float64      `json:"seconds"`
	Trace     int          `json:"trace"`
	Env       envInfo      `json:"env"`
	Load      string       `json:"load"`
	Windows   int          `json:"windows"`  // calibration windows of the untraced phase
	Timeline  []windowStat `json:"timeline"` // the untraced phase, window by window
	Metrics   []metric     `json:"metrics"`
	Dists     []dist       `json:"dists"`
	Checks    []check      `json:"checks"`
	Correct   bool         `json:"correct"`
	Attempted int64        `json:"attempted"`
	Failed    int64        `json:"failed"`
}

// windowStat is one calibration window of the untraced phase, unscaled.
type windowStat struct {
	Secs     float64 `json:"secs"`
	Epochs   int     `json:"epochs"`
	CPUMS    float64 `json:"cpu_ms"`
	StealMS  float64 `json:"steal_ms"`
	PausedMS float64 `json:"paused_ms"`
	Slowdown float64 `json:"slowdown"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
}

const reportSchema = "uniloc-bench-serving/v1"

func (r *report) add(name, unit string, v float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

// pct records the nearest-rank q-th percentile of samples (any order).
func (r *report) pct(name, unit string, vals []float64, q float64) {
	ok := supported(len(vals), q)
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: percentile(sortedCopy(vals), q), N: len(vals), Q: q, Supported: &ok})
}

// dist records a timing distribution's median and supported tail.
func (r *report) dist(name, unit string, vals []float64) {
	s := sortedCopy(vals)
	q := highestSupported(len(s))
	r.Dists = append(r.Dists, dist{Name: name, Unit: unit, N: len(s), P50: percentile(s, 0.5), TailQ: q, Tail: percentile(s, q)})
}

// mean records the mean of samples.
func (r *report) mean(name, unit string, vals []float64) {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	v := math.NaN()
	if len(vals) > 0 {
		v = sum / float64(len(vals))
	}
	r.add(name, unit, v, len(vals))
}

func (r *report) check(name string, ok bool, format string, args ...interface{}) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r *report) allChecksPass() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// summaryMetric is one entry of the result line.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line: correctness, operation counts, and the
// metrics BENCHMARK.json lists for this mode — end-to-end without
// tracing, per-layer with it.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

// summarize selects the spec's metrics for the run's mode. Every listed
// metric must have been measured, with the listed unit and a finite
// value.
func (r *report) summarize(s *benchSpec) (*summary, error) {
	list := s.EndToEnd
	if r.Trace != 0 {
		list = s.PerLayer
	}
	out := &summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]summaryMetric, len(list))}
	var missing []string
	for _, sm := range list {
		m, ok := r.get(sm.Name)
		switch {
		case !ok:
			missing = append(missing, sm.Name)
		case m.Unit != sm.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", sm.Name, m.Unit, sm.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %s has no finite value (n=%d)", sm.Name, m.N)
		default:
			out.Metrics[sm.Name] = summaryMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// print writes the human-readable report: every metric by name with its
// unit and sample count, then every check.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%d\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "# env: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s degraded=%v\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.CPUModel, r.Env.GoVersion, r.Env.Commit, r.Env.Degraded)
	fmt.Fprintf(w, "# load: %s\n", r.Load)
	for _, m := range r.Metrics {
		note := ""
		if m.N > 0 {
			note = fmt.Sprintf("  (n=%d)", m.N)
		}
		if m.Supported != nil && !*m.Supported {
			note += " [fewer than 10 samples beyond this percentile]"
		}
		fmt.Fprintf(w, "metric %-36s %14.6g %s%s\n", m.Name, m.Value, m.Unit, note)
	}
	for _, d := range r.Dists {
		fmt.Fprintf(w, "dist   %-36s p50 %.6g %s, p%g %.6g %s  (n=%d)\n", d.Name, d.P50, d.Unit, 100*d.TailQ, d.Tail, d.Unit, d.N)
	}
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %-30s %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "# correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}
