package main

import (
	"testing"
)

// TestSmokeEveryWorkload runs each workload end to end on a tiny walk
// pool (one 30-epoch walk per path, served once, traced phase on) and
// checks that every correctness check passes and that every metric
// BENCHMARK.json lists is emitted, for both the untraced and the traced
// result line, and that compare knows which way every emitted metric is
// better.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			rep, err := execute(runConfig{
				workload: wl, seed: 1, seconds: 60, trace: true, commit: "test",
				perPath: 1, maxEpochs: 2*migrateEvery + 2, once: true, setups: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			for _, m := range rep.Metrics {
				if _, _, err := direction(spec, m.Name); err != nil {
					t.Error(err)
				}
			}
			for _, mode := range []int{0, 1} {
				rep.Trace = mode
				if _, err := rep.summarize(spec); err != nil {
					t.Errorf("trace %d: %v", mode, err)
				}
			}
			want := map[string][]string{
				wlIngest:  {"mapstore.submit_us_p50", "mapstore.rebuilds", "mapstore.visible_ms_p95", "err_noingest_p50_m"},
				wlMigrate: {"resume_p50_ms", "resume_p95_ms", "handoff.ship_bytes_per_epoch", "handoff.ship_lag_us_p95", "handoff.fetch_us_p50"},
				wlChurn:   {"first_fix_p99_ms"},
			}
			for _, name := range want[wl] {
				if _, ok := rep.get(name); !ok {
					t.Errorf("workload metric %s not emitted", name)
				}
			}
		})
	}
}

// TestFixedWalksFinishPastDeadline checks that an untraced phase serves
// its fixed walks (the first walk of every path) to their end even when
// the deadline has passed, so err_p50_m covers the same epochs however
// fast the stack is.
func TestFixedWalksFinishPastDeadline(t *testing.T) {
	const epochs = 20
	rep, err := execute(runConfig{
		workload: wlWalk, seed: 1, seconds: 1e-6, commit: "test",
		perPath: 2, maxEpochs: epochs, setups: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("checks failed: %+v", rep.Checks)
	}
	m, ok := rep.get("err_p50_m")
	if want := 8 * epochs; !ok || m.N != want {
		t.Fatalf("err_p50_m over %d epochs, want %d (every epoch of the 8 fixed walks)", m.N, want)
	}
}
