package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Verdicts of a comparison, per workload and metric.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// side summarizes one side's runs of one metric.
type side struct {
	n           int
	q1, med, q3 float64
}

// row is one workload × metric comparison.
type row struct {
	workload, metric, unit string
	bound                  *float64
	a, b                   side
	pairs                  int
	wins                   float64 // share of pairs the change (B) won; ties count for neither
	verdict                string
}

// compareMain implements `bench compare A/*.json B/*.json`: the -out
// reports of two directories, grouped by directory. A is the parent, B
// the change.
func compareMain(args []string, w io.Writer) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(w, "compare: reading BENCHMARK.json: %v\n", err)
		return 2
	}
	groups, err := groupSides(args)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	var sides [2][]*report
	for i, g := range groups {
		for _, f := range g {
			r, err := readReport(f)
			if err != nil {
				fmt.Fprintf(w, "compare: %v\n", err)
				return 2
			}
			sides[i] = append(sides[i], r)
		}
	}
	rows, err := compareRuns(spec, sides[0], sides[1])
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	return printRows(w, rows)
}

// groupSides splits the report files into the two sides by directory,
// in the order the directories first appear.
func groupSides(args []string) ([2][]string, error) {
	var out [2][]string
	var dirs []string
	byDir := map[string][]string{}
	for _, f := range args {
		d := filepath.Dir(f)
		if _, ok := byDir[d]; !ok {
			dirs = append(dirs, d)
		}
		byDir[d] = append(byDir[d], f)
	}
	if len(dirs) != 2 {
		return out, fmt.Errorf("want two directories of reports (parent, then change), got %d", len(dirs))
	}
	out[0], out[1] = byDir[dirs[0]], byDir[dirs[1]]
	return out, nil
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// compareRuns compares the change (b) against the parent (a) for every
// workload and metric both sides measured. Runs pair up in file order
// within a workload. It refuses runs from different hardware, in
// different modes, or of another length than BENCHMARK.json's
// run_seconds, which the bounds were derived from.
func compareRuns(spec *benchSpec, a, b []*report) ([]row, error) {
	all := append(append([]*report(nil), a...), b...)
	sig, tr := all[0].Env.signature(), all[0].Trace
	for _, r := range all {
		if s := r.Env.signature(); s != sig {
			return nil, fmt.Errorf("hardware differs: %q vs %q", sig, s)
		}
		if r.Seconds != float64(spec.RunSeconds) {
			return nil, fmt.Errorf("%s run measured %gs, BENCHMARK.json run_seconds is %d", r.Workload, r.Seconds, spec.RunSeconds)
		}
		if r.Trace != tr {
			return nil, fmt.Errorf("run modes differ: trace=%d vs trace=%d", tr, r.Trace)
		}
	}
	byWL := func(rs []*report) map[string][]*report {
		m := map[string][]*report{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	aw, bw := byWL(a), byWL(b)
	var rows []row
	for _, wl := range sortedKeys(aw) {
		ra, rb := aw[wl], bw[wl]
		if len(rb) == 0 {
			continue
		}
		for _, m := range ra[0].Metrics {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) != len(ra) || len(vb) != len(rb) {
				continue // not measured in every run
			}
			better, bound, err := direction(spec, m.Name)
			if err != nil {
				return nil, err
			}
			rows = append(rows, judge(wl, m.Name, m.Unit, better, bound, va, vb))
		}
	}
	return rows, nil
}

// reportOnly gives which way is better for every metric the report
// emits that BENCHMARK.json does not list. Counts that grow with the
// work served in a fixed time are better higher.
var reportOnly = map[string]string{
	"raw.setup_s":                  "lower",
	"raw.epochs_per_s":             "higher",
	"raw.epoch_p50_ms":             "lower",
	"raw.epoch_p99_ms":             "lower",
	"raw.cpu_ms_per_epoch":         "lower",
	"host.slowdown":                "lower",
	"rss_run_peak_mb":              "lower",
	"fail_frac":                    "lower",
	"first_fix_p50_ms":             "lower",
	"first_fix_p99_ms":             "lower",
	"resume_p50_ms":                "lower",
	"resume_p95_ms":                "lower",
	"sessions":                     "higher",
	"err_noingest_p50_m":           "lower",
	"session.hello_us_p99":         "lower",
	"scheme.motion.avail_frac":     "higher",
	"scheme.fusion.avail_frac":     "higher",
	"shared.hit_frac":              "higher",
	"shared.hits":                  "higher",
	"shared.lookups":               "higher",
	"shared.entries_built":         "lower",
	"mapstore.points_final":        "higher",
	"mapstore.submit_us_p50":       "lower",
	"mapstore.rebuilds":            "higher",
	"mapstore.visible_ms_p50":      "lower",
	"mapstore.visible_ms_p95":      "lower",
	"handoff.state_bytes":          "lower",
	"handoff.ship_bytes_per_epoch": "lower",
	"handoff.ship_us_p50":          "lower",
	"handoff.ship_lag_us_p50":      "lower",
	"handoff.ship_lag_us_p95":      "lower",
	"handoff.fetch_us_p50":         "lower",
	"trace.spans_per_epoch":        "lower",
	"trace.dropped":                "lower",
}

// direction returns which way is better for a metric and its bound:
// from BENCHMARK.json when it lists the metric, else from reportOnly,
// without a bound.
func direction(spec *benchSpec, name string) (better string, bound *float64, err error) {
	if sm, ok := spec.lookup(name); ok {
		return sm.Better, sm.Bound, nil
	}
	if b, ok := reportOnly[name]; ok {
		return b, nil, nil
	}
	return "", nil, fmt.Errorf("metric %s has no direction: list it in BENCHMARK.json or reportOnly", name)
}

func sortedKeys(m map[string][]*report) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func values(rs []*report, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.get(name); ok && !math.IsNaN(m.Value) {
			v = append(v, m.Value)
		}
	}
	return v
}

func summarizeSide(v []float64) side {
	q1, q2, q3 := quartiles(v)
	return side{n: len(v), q1: q1, med: q2, q3: q3}
}

// minPairs is the fewest pairs a gain (or, without a bound, a loss) can
// rest on.
const minPairs = 10

// judge applies the measurement rules. Over at least minPairs pairs,
// the change improved a metric when it won at least nine tenths of them
// and the medians differ by more than the parent's own spread (its
// interquartile range), or when every run of the change beats every run
// of the parent. Otherwise, against the metric's bound, the change
// regressed when its median is worse than the parent's by more than the
// bound. When the parent's runs spread wider than the bound, the
// comparison is unresolved, unless every run of the change is worse
// than every run of the parent: then it regressed. Metrics without a
// bound can only improve, regress (the gain rule reversed) or stay
// unchanged.
func judge(workload, name, unit, better string, bound *float64, a, b []float64) row {
	r := row{workload: workload, metric: name, unit: unit, bound: bound, a: summarizeSide(a), b: summarizeSide(b)}
	lower := better != "higher"
	beats := func(x, y float64) bool {
		if lower {
			return x < y
		}
		return x > y
	}
	r.pairs = len(a)
	if len(b) < r.pairs {
		r.pairs = len(b)
	}
	wins, losses := 0, 0
	for i := 0; i < r.pairs; i++ {
		switch {
		case beats(b[i], a[i]):
			wins++
		case beats(a[i], b[i]):
			losses++
		}
	}
	r.wins = float64(wins) / float64(r.pairs)
	spread := r.a.q3 - r.a.q1
	diff := math.Abs(r.b.med - r.a.med)
	enough := r.pairs >= minPairs
	switch {
	case enough && (r.wins >= 0.9 && diff > spread && beats(r.b.med, r.a.med) || allBeat(b, a, beats)):
		r.verdict = improved
		return r
	case bound == nil:
		if enough && float64(losses)/float64(r.pairs) >= 0.9 && diff > spread && beats(r.a.med, r.b.med) {
			r.verdict = regressed
		} else {
			r.verdict = unchanged
		}
		return r
	}
	worse := 0.0 // relative worsening of the median, positive = worse
	if r.a.med != 0 {
		worse = (r.b.med - r.a.med) / math.Abs(r.a.med)
		if !lower {
			worse = -worse
		}
	} else if beats(r.a.med, r.b.med) {
		worse = math.Inf(1)
	}
	relSpread := 0.0
	if r.a.med != 0 {
		relSpread = spread / math.Abs(r.a.med)
	}
	switch {
	case relSpread > *bound && allBeat(a, b, beats):
		r.verdict = regressed
	case relSpread > *bound:
		r.verdict = unresolved
	case worse > *bound:
		r.verdict = regressed
	default:
		r.verdict = unchanged
	}
	return r
}

// allBeat reports whether every run in x beats every run in y.
func allBeat(x, y []float64, beats func(a, b float64) bool) bool {
	for _, u := range x {
		for _, v := range y {
			if !beats(u, v) {
				return false
			}
		}
	}
	return len(x) > 0 && len(y) > 0
}

// printRows prints the comparison table and returns 1 when any bounded
// (end-to-end) metric regressed or is unresolved.
func printRows(w io.Writer, rows []row) int {
	fmt.Fprintf(w, "%-8s %-34s %-9s %-40s %-40s %5s  %s\n", "workload", "metric", "unit", "A q1/median/q3 (n)", "B q1/median/q3 (n)", "wins", "verdict")
	status := 0
	counts := map[string]int{}
	for _, r := range rows {
		bound := "-"
		if r.bound != nil {
			bound = fmt.Sprintf("%g", *r.bound)
		}
		fmt.Fprintf(w, "%-8s %-34s %-9s %-40s %-40s %5.2f  %s (bound %s)\n", r.workload, r.metric, r.unit,
			fmtSide(r.a), fmtSide(r.b), r.wins, r.verdict, bound)
		if r.bound != nil {
			counts[r.verdict]++
			if r.verdict == regressed || r.verdict == unresolved {
				status = 1
			}
		}
	}
	var parts []string
	for _, v := range []string{improved, unchanged, regressed, unresolved} {
		parts = append(parts, fmt.Sprintf("%s=%d", v, counts[v]))
	}
	fmt.Fprintf(w, "bounded metrics: %s\n", strings.Join(parts, " "))
	return status
}

func fmtSide(s side) string {
	return fmt.Sprintf("%.4g/%.4g/%.4g (%d)", s.q1, s.med, s.q3, s.n)
}
