// Command bench is the serving benchmark: it starts the real UniLoc
// serving stack in-process — offload servers, a cluster router, a
// handoff mesh, on loopback TCP — drives it with closed-loop walkers
// through offload.Client, checks every answer, and reports end-to-end
// metrics from an untraced phase and per-layer metrics from a separate
// traced phase. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload walk --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out bench/results/run.json
//	bash bench/run.sh compare bench/results/base/*.json bench/results/head/*.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics BENCHMARK.json lists for the mode
// (end-to-end with --trace 0, per-layer with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	commit   string

	// Smoke-test knobs: walks per path in the pool, epochs per walk
	// (0 = whole path), and whether to run the pool once instead of
	// cycling it until the deadline. setups is how many times set-up is
	// timed (the median is reported).
	perPath   int
	maxEpochs int
	once      bool
	setups    int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	workload := flag.String("workload", "", "workload: walk, churn, ingest, migrate, or all")
	seed := flag.Int64("seed", 1, "workload seed: walker noise and paths (seed 2 is reserved as the hold-out for claims)")
	seconds := flag.Float64("seconds", 0, "measured seconds (0 = BENCHMARK.json run_seconds); with --trace 1 half is untraced, half traced; an untraced phase first finishes its fixed walks")
	traceOn := flag.Int("trace", 0, "1 = also run a traced phase on fresh nodes and report per-layer metrics")
	out := flag.String("out", "", "also write the full report (every metric and check) as JSON here")
	commit := flag.String("commit", "unknown", "commit label recorded in the report")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		log.Fatalf("reading BENCHMARK.json: %v", err)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traceOn != 0, commit: *commit,
		perPath: 8, setups: 3,
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if cfg.trace {
		cfg.setups = 1 // set-up time is an end-to-end metric; traced runs report per-layer ones
	}
	if cfg.workload == "all" {
		os.Exit(runAll(cfg, *out))
	}
	if !known(cfg.workload) {
		log.Fatalf("unknown workload %q (want one of %s, or all)", cfg.workload, strings.Join(workloads, ", "))
	}

	rep, err := execute(cfg)
	if err != nil {
		log.Fatalf("%s: %v", cfg.workload, err)
	}
	rep.print(os.Stdout)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			log.Fatalf("writing report: %v", err)
		}
	}
	sum, err := rep.summarize(spec)
	if err != nil {
		log.Fatalf("%s: %v", cfg.workload, err)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		log.Fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// runAll runs every workload in its own process with the same settings,
// writing each report next to out with the workload name appended.
func runAll(cfg runConfig, out string) int {
	traceArg := "0"
	if cfg.trace {
		traceArg = "1"
	}
	status := 0
	for _, w := range workloads {
		args := []string{"-workload", w, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", traceArg, "-commit", cfg.commit}
		if out != "" {
			ext := filepath.Ext(out)
			args = append(args, "-out", strings.TrimSuffix(out, ext)+"-"+w+ext)
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			log.Printf("%s: %v", w, err)
			status = 1
		}
	}
	return status
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// loadShape states how load is generated, for every report.
var loadShape = fmt.Sprintf("closed loop, %d connections (walker slots) from this process, no think time, walks assigned to slots statically; "+
	"cpu_ms_per_epoch counts the whole process: servers, router, handoff mesh and the load generator itself", conns)
