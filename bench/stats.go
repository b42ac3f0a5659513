package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// percentile reads the q-th quantile (0..1) off sorted samples by the
// nearest-rank method: the smallest sample with at least q·n samples at
// or below it. NaN when there are no samples.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailQuantiles are the percentiles a timing may be reported at, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// beyond counts the samples strictly above the nearest-rank q-th
// quantile's rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// highestSupported returns the highest tail quantile that leaves at
// least ten samples beyond it, or 0.5 when even p75 does not: a tail
// read off fewer samples is one or two outliers, not a percentile.
func highestSupported(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0.5
}

// supported reports whether a q-th percentile over n samples has at
// least ten samples beyond it (always true for the median of a
// non-empty sample).
func supported(n int, q float64) bool {
	return n > 0 && (q <= 0.5 || beyond(n, q) >= 10)
}

// samples is a concurrency-safe sample collector for hooks that fire on
// serving goroutines.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addSince(t0 time.Time) { s.add(us(time.Since(t0))) }

// sorted returns a sorted copy of the samples.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

// quartiles returns the first quartile, median and third quartile
// exactly as Python's statistics.quantiles(values, n=4) computes them
// (the default "exclusive" method, extrapolating for tiny samples), so
// spreads match the ones BENCHMARK.json's bounds are checked with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime reads the CPU time the hypervisor ran something else while
// this machine's CPUs wanted to run, summed over every CPU (the steal
// column of /proc/stat, in USER_HZ = 100 ticks per second). Zero where
// the kernel does not report it.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// rssBytes reads the process's current resident set size.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// rssSampler tracks the peak resident set size while a phase runs: over
// the whole phase, and until the phase has answered rssEpochs epochs.
// The peaks belong to the sampling goroutine until done is closed.
type rssSampler struct {
	peak, early int64
	stop        chan struct{}
	done        chan struct{}
}

// rssEpochs is how many answered epochs rss_peak_mb covers. The stack's
// memory grows with the epochs it serves (shared-compute likelihood rows
// stay cached while any session pins their snapshot), so a peak over a
// fixed span of time would follow throughput; every untraced phase
// answers this many well within its time, even on a slow host.
const rssEpochs = 8000

// startRSS samples RSS every 10 ms until the returned sampler's finish
// is called; answered counts the phase's answered epochs.
func startRSS(answered *atomic.Int64) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			r := rssBytes()
			s.peak = max(s.peak, r)
			if answered.Load() < rssEpochs {
				s.early = max(s.early, r)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak RSS in bytes until
// rssEpochs epochs were answered (the whole phase, if it answered
// fewer), and over the whole phase.
func (s *rssSampler) finish() (early, whole int64) {
	close(s.stop)
	<-s.done
	return s.early, s.peak
}

// goStats is a runtime/metrics reading: cumulative heap allocation and
// the GC's share of CPU time.
type goStats struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		case metrics.KindFloat64:
			return m.Value.Float64()
		}
		return 0
	}
	return goStats{allocBytes: val(s[0]), gcCPU: val(s[1]), totalCPU: val(s[2])}
}

// envInfo describes the hardware and toolchain a run measured on.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	// Degraded marks runs where the box has fewer cores than the load
	// generator has connections: such numbers cannot project multicore
	// behaviour.
	Degraded bool `json:"degraded"`
}

func readEnv(commit string) envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit,
	}
	e.Degraded = e.NProc < conns
	return e
}

// signature identifies the hardware a run is comparable on.
func (e envInfo) signature() string {
	return strings.Join([]string{e.CPUModel, strconv.Itoa(e.NProc), strconv.Itoa(e.GOMAXPROCS), e.GOOS, e.GOARCH}, "|")
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
