package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Host calibration. On a shared host the same code runs up to twice as
// slow for seconds or minutes at a time while other tenants load the
// machine, and that drift, not the code, dominates run-to-run spread.
// The benchmark therefore times a fixed calibration kernel — its own
// code, which no change to the program touches — at regular instants
// of every untraced phase, with the serving stack held idle, and scales
// each stretch of the phase to the speed at which the kernel takes
// kernelRef. The program's own time profile is dominated by math.Hypot,
// math.Exp and point-in-polygon tests over particles; the kernel is the
// same instruction mix, so it slows down with the program, if somewhat
// less (see sensitivity).

const (
	// kernelRef is the kernel's run time on the reference host: about its
	// fastest on a 2-vCPU Intel Xeon VM with Go 1.24, where busy hours
	// stretch it to nearly twice that. It only sets the unit: a slowdown
	// of 1 means the host runs the kernel that fast.
	kernelRef = 200 * time.Microsecond

	// sampleEvery is how often a phase holds the stack idle and times the
	// kernel; a window holds windowLen/sampleEvery samples.
	sampleEvery = 100 * time.Millisecond

	// burstSamples is how many kernel timings calibrate one set-up: half
	// just before it, half just after.
	burstSamples = 16

	// sensitivity is how much harder host load slows serving than it
	// slows the kernel: where the kernel runs s times slower, serving runs
	// s^sensitivity times slower. It is the slope of log CPU time per
	// epoch against log slowdown, window by window, on the reference host:
	// 1.03 to 1.32 across four sets of ten seeds on each workload, 1.2
	// overall. Set-up is divided by the slowdown itself; training tracks
	// the kernel one-for-one or less.
	sensitivity = 1.2
)

// kernel is the calibration workload: one pass of a particle update
// over fixed, read-only inputs — a move, a point-in-polygon test, two
// distances, a grid lookup and a Gaussian weight per particle — so every
// pass does the same work.
type kernel struct {
	px, py []float64
	step   [64]float64
	grid   []float64 // 128 x 128 cells
	poly   [][2]float64
}

func newKernel() *kernel {
	r := rand.New(rand.NewSource(1))
	k := &kernel{px: make([]float64, 1024), py: make([]float64, 1024), grid: make([]float64, 128*128)}
	for i := range k.px {
		k.px[i], k.py[i] = 100*r.Float64(), 100*r.Float64()
	}
	for i := range k.step {
		k.step[i] = r.NormFloat64()
	}
	for i := range k.grid {
		k.grid[i] = 50 * r.Float64()
	}
	for i := 0; i < 24; i++ {
		a, rad := 2*math.Pi*float64(i)/24, 30+15*r.Float64()
		k.poly = append(k.poly, [2]float64{50 + rad*math.Cos(a), 50 + rad*math.Sin(a)})
	}
	return k
}

// run performs one pass and returns the particles' total weight.
func (k *kernel) run() float64 {
	sum := 0.0
	for i := range k.px {
		x := clamp(k.px[i] + k.step[i&63])
		y := clamp(k.py[i] + k.step[(i+17)&63])
		w := 1.0
		if !inside(x, y, k.poly) {
			w = 0.5
		}
		d := math.Hypot(x-20, y-70) + math.Hypot(x-80, y-30)
		g := k.grid[int(x*1.27)*128+int(y*1.27)]
		e := (d - g) / 40
		sum += w * math.Exp(-e*e)
	}
	return sum
}

func clamp(v float64) float64 { return math.Max(0, math.Min(v, 100)) }

// inside is the even-odd point-in-polygon test.
func inside(x, y float64, poly [][2]float64) bool {
	in := false
	j := len(poly) - 1
	for i := range poly {
		xi, yi, xj, yj := poly[i][0], poly[i][1], poly[j][0], poly[j][1]
		if (yi > y) != (yj > y) && x < (xj-xi)*(y-yi)/(yj-yi)+xi {
			in = !in
		}
		j = i
	}
	return in
}

// calibrator times the kernel on conns goroutines at once, so both the
// cores the serving stack runs on are measured, each goroutine with its
// own kernel.
type calibrator struct {
	kernels []*kernel
	sink    []float64
}

func newCalibrator() *calibrator {
	c := &calibrator{sink: make([]float64, conns)}
	for i := 0; i < conns; i++ {
		c.kernels = append(c.kernels, newKernel())
	}
	return c
}

// slowdown runs one pass per goroutine and returns the mean pass time
// over kernelRef: 1 on the reference host, 2 on a host running at half
// its speed.
func (c *calibrator) slowdown() float64 {
	var wg sync.WaitGroup
	d := make([]time.Duration, len(c.kernels))
	for i, k := range c.kernels {
		wg.Add(1)
		go func(i int, k *kernel) {
			defer wg.Done()
			t0 := time.Now()
			c.sink[i] = k.run()
			d[i] = time.Since(t0)
		}(i, k)
	}
	wg.Wait()
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return float64(sum) / float64(len(d)) / float64(kernelRef)
}

// hostSample is one calibration of an untraced phase.
type hostSample struct {
	at       time.Duration // when the stack was released again, since the phase started
	paused   time.Duration // wall time the stack was held idle
	cpu      time.Duration // process CPU time spent while it was
	slowdown float64
}

// sample holds the stack idle — every walker slot waits at gate between
// requests, so in-flight requests finish first — and times the kernel.
func (c *calibrator) sample(gate *sync.RWMutex, t0 time.Time) hostSample {
	gate.Lock()
	defer gate.Unlock()
	start, cpu0 := time.Now(), cpuTime()
	f := c.slowdown()
	now := time.Now()
	return hostSample{at: now.Sub(t0), paused: now.Sub(start), cpu: cpuTime() - cpu0, slowdown: f}
}

// burst returns the median slowdown of n back-to-back timings.
func (c *calibrator) burst(n int) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = c.slowdown()
	}
	sort.Float64s(v)
	return percentile(v, 0.5)
}
