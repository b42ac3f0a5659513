package main

import (
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/offload"
	"repro/internal/telemetry/trace"
)

// Workload names.
const (
	wlWalk    = "walk"
	wlChurn   = "churn"
	wlIngest  = "ingest"
	wlMigrate = "migrate"
)

var workloads = []string{wlWalk, wlChurn, wlIngest, wlMigrate}

const (
	// conns is the load generator's connection count: one walker slot
	// per connection, all in this process. See README.md for why the
	// loop is closed at two.
	conns = 2

	churnEpochs  = 4  // epochs per churn session
	churnSample  = 64 // every 64th segment of a walk is checked against a reference
	surveyEvery  = 4  // ingest: a survey rides along every 4th epoch
	migrateEvery = 25 // migrate: epochs between cross-node moves

	clientTimeout = 30 * time.Second
	shipWait      = 5 * time.Second // longest a migration waits for the peer to hold the walk
)

// served is one sampled session's answers, kept for the reference check.
type served struct {
	walk  int       // index into the walk pool
	from  int       // first epoch of the session
	start geo.Point // hello start position
	res   []*offload.Result
}

// epochRange is a run of epochs of one walk that a session uploaded.
type epochRange struct{ walk, from, n int }

// slotStats is what one walker slot measured.
type slotStats struct {
	attempted, failed, epochs     int64
	sessions, migrations, surveys int64
	bytesUp, bytesDown            int64

	lat, resume, firstFix []float64       // ms
	latAt                 []time.Duration // completion of each lat epoch, since the phase started
	done                  []time.Duration // completion of every answered epoch, since the phase started
	errM                  []float64       // m, fused position vs ground truth
	errFixed              []float64       // m, the same on the fixed walks only
	hello, firstEpoch     []float64       // µs
	shipLag               []float64       // µs

	sampled  []served
	uploaded []epochRange
	failures []string
}

func (s *slotStats) merge(o *slotStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.epochs += o.epochs
	s.sessions += o.sessions
	s.migrations += o.migrations
	s.surveys += o.surveys
	s.bytesUp += o.bytesUp
	s.bytesDown += o.bytesDown
	s.lat = append(s.lat, o.lat...)
	s.latAt = append(s.latAt, o.latAt...)
	s.done = append(s.done, o.done...)
	s.resume = append(s.resume, o.resume...)
	s.firstFix = append(s.firstFix, o.firstFix...)
	s.errM = append(s.errM, o.errM...)
	s.errFixed = append(s.errFixed, o.errFixed...)
	s.hello = append(s.hello, o.hello...)
	s.firstEpoch = append(s.firstEpoch, o.firstEpoch...)
	s.shipLag = append(s.shipLag, o.shipLag...)
	s.sampled = append(s.sampled, o.sampled...)
	s.uploaded = append(s.uploaded, o.uploaded...)
	s.failures = append(s.failures, o.failures...)
}

// noteLatency records the round trip of the epoch answered last.
func (s *slotStats) noteLatency(d time.Duration) {
	s.lat = append(s.lat, ms(d))
	s.latAt = append(s.latAt, s.done[len(s.done)-1])
}

// phase is one closed-loop measurement over a stack.
type phase struct {
	st       *stack
	workload string
	walks    []walk
	seed     int64
	deadline time.Time
	once     bool // run the walk pool once instead of cycling it (smoke tests)
	t0       time.Time

	tracer *trace.Tracer // nil: untraced

	// cal, when set, calibrates the phase against the host's speed (see
	// calib.go). Walker slots hold gate for reading around every request,
	// and cal holds it for writing while it times the kernel.
	cal  *calibrator
	gate sync.RWMutex

	answered atomic.Int64 // epochs answered so far, every slot
}

// result is a phase's merged measurements and resource use.
type result struct {
	slotStats
	elapsed      time.Duration
	cpu          time.Duration // process CPU time, less the calibration's own
	marks        []cpuMark     // process CPU time every windowLen
	host         []hostSample  // calibrations, every sampleEvery
	rssPeak      int64         // until rssEpochs epochs were answered
	rssPeakWhole int64         // over the whole phase
	goDelta      goStats
}

// windowLen is the length of the windows a phase is calibrated over:
// every window is scaled by the median slowdown of its own calibration
// samples (see window.scale), so the windows are short enough to follow
// the host's drift.
const windowLen = time.Second

// cpuMark is the process CPU time, and the CPU time the host took from
// the machine (steal), at an instant of the phase.
type cpuMark struct{ at, cpu, steal time.Duration }

// window is one windowLen slice of a phase.
type window struct {
	secs     float64
	epochs   int
	cpu      time.Duration
	steal    time.Duration // CPU time the host took from the machine, all CPUs
	lat      []float64     // ms
	paused   time.Duration // stack held idle for calibration
	calCPU   time.Duration // CPU time the calibration spent
	slowdown float64       // median of the window's calibrations; 1 without any
}

// scale is what the window's serving time, CPU time and latencies are
// divided by to bring them to the reference host speed.
func (w window) scale() float64 { return math.Pow(w.slowdown, sensitivity) }

// windows splits the phase at its CPU marks. A phase shorter than one
// window is a single window.
func (r *result) windows() []window {
	var ws []window
	if len(r.marks) < 2 {
		ws = []window{{secs: r.elapsed.Seconds(), cpu: r.cpu}}
		for _, h := range r.host {
			ws[0].cpu += h.cpu // r.cpu already excludes it
		}
	} else {
		ws = make([]window, len(r.marks)-1)
		for k := range ws {
			ws[k].secs = (r.marks[k+1].at - r.marks[k].at).Seconds()
			ws[k].cpu = r.marks[k+1].cpu - r.marks[k].cpu
			ws[k].steal = r.marks[k+1].steal - r.marks[k].steal
		}
	}
	index := func(at time.Duration) int {
		if len(r.marks) < 2 {
			return 0
		}
		k := sort.Search(len(r.marks), func(i int) bool { return r.marks[i].at > at }) - 1
		if k >= len(ws) {
			return -1
		}
		return k
	}
	for _, at := range r.done {
		if k := index(at); k >= 0 {
			ws[k].epochs++
		}
	}
	for i, at := range r.latAt {
		if k := index(at); k >= 0 {
			ws[k].lat = append(ws[k].lat, r.lat[i])
		}
	}
	slow := make([][]float64, len(ws))
	for _, h := range r.host {
		if k := index(h.at); k >= 0 {
			ws[k].paused += h.paused
			ws[k].calCPU += h.cpu
			slow[k] = append(slow[k], h.slowdown)
		}
	}
	for k := range ws {
		ws[k].slowdown = 1
		if len(slow[k]) > 0 {
			ws[k].slowdown = median(slow[k])
		}
	}
	return ws
}

// samplesPerWindow is how many calibrations fall in a window.
const samplesPerWindow = int(windowLen / sampleEvery)

// run drives the phase: conns walker slots, each sending its next epoch
// only once the previous answer arrived (closed loop, no think time),
// with walks assigned to slots statically. It returns when every slot
// has stopped at the deadline or run out of walks; an untraced phase
// first finishes its fixed walks.
func (p *phase) run() *result {
	rss := startRSS(&p.answered)
	go0, cpu0, t0 := readGoStats(), cpuTime(), time.Now()
	p.t0 = t0
	marks := []cpuMark{{0, cpu0, stealTime()}}
	var host []hostSample
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if p.cal != nil {
				host = append(host, p.cal.sample(&p.gate, t0))
			}
			if i%samplesPerWindow == 0 {
				marks = append(marks, cpuMark{time.Since(t0), cpuTime(), stealTime()})
			}
		}
	}()
	slots := make([]slotStats, conns)
	var wg sync.WaitGroup
	for i := range slots {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.slot(i, &slots[i])
		}(i)
	}
	wg.Wait()
	close(stop)
	<-stopped
	r := &result{elapsed: time.Since(t0), cpu: cpuTime() - cpu0, marks: marks, host: host}
	for _, h := range host {
		r.cpu -= h.cpu
	}
	go1 := readGoStats()
	r.goDelta = goStats{allocBytes: go1.allocBytes - go0.allocBytes, gcCPU: go1.gcCPU - go0.gcCPU, totalCPU: go1.totalCPU - go0.totalCPU}
	r.rssPeak, r.rssPeakWhole = rss.finish()
	for i := range slots {
		r.merge(&slots[i])
	}
	return r
}

func (p *phase) over() bool {
	return time.Now().After(p.deadline) || (p.tracer != nil && p.tracer.Spans() >= spanBudget)
}

func (p *phase) slot(i int, out *slotStats) {
	for k := i; ; k += conns {
		if (p.once && k >= len(p.walks)) || (p.over() && !p.fixedWalk(k)) {
			return
		}
		var err error
		if p.workload == wlChurn {
			err = p.churnWalk(k, out)
		} else {
			err = p.walkSession(k, out)
		}
		if err != nil {
			out.failures = append(out.failures, err.Error())
		}
	}
}

// sampledWalk reports whether walk k is checked against a reference:
// the first walk of every path.
func (p *phase) sampledWalk(k int) bool { return k < len(p.st.t.campus.Place.Paths) }

// fixedWalk reports whether walk k is one of an untraced phase's fixed
// walks: the sampled walks, which run to their end whatever the
// deadline, so err_p50_m is read over the same epochs on every run
// however fast the stack serves them.
func (p *phase) fixedWalk(k int) bool { return p.tracer == nil && p.sampledWalk(k) }

func (p *phase) newClient(id, addr string) (*offload.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := offload.NewClient(conn, id)
	c.SetTimeout(clientTimeout)
	c.SetTracer(p.tracer)
	return c, nil
}

// open dials addr and says hello from start, as one request under the
// calibration gate. It returns the client (nil when the dial failed) and
// how long the dial and the hello took.
func (p *phase) open(id, addr string, start geo.Point, out *slotStats) (*offload.Client, time.Duration, error) {
	p.gate.RLock()
	defer p.gate.RUnlock()
	t0 := time.Now()
	c, err := p.newClient(id, addr)
	if err != nil {
		return nil, 0, err
	}
	th := time.Now()
	if err := c.Hello(start); err != nil {
		return c, 0, fmt.Errorf("%s: hello: %w", id, err)
	}
	out.hello = append(out.hello, us(time.Since(th)))
	out.sessions++
	return c, time.Since(t0), nil
}

// closeClient records a client's traffic and closes it.
func closeClient(c *offload.Client, out *slotStats) {
	out.bytesUp += int64(c.BytesUp())
	out.bytesDown += int64(c.BytesDown())
	_ = c.Close()
}

// epoch sends one epoch and records its answer. It returns the round
// trip, or an error when the epoch failed or came back non-finite. The
// caller holds the calibration gate.
func (p *phase) epoch(c *offload.Client, w *walk, j int, fixed bool, out *slotStats, rec *served) (time.Duration, error) {
	out.attempted++
	t0 := time.Now()
	res, err := c.Localize(w.snaps[j])
	t1 := time.Now()
	d := t1.Sub(t0)
	if err == nil && !(finite(res.X) && finite(res.Y)) {
		err = fmt.Errorf("non-finite position (%v, %v)", res.X, res.Y)
	}
	if err != nil {
		out.failed++
		return d, err
	}
	out.epochs++
	p.answered.Add(1)
	out.done = append(out.done, t1.Sub(p.t0))
	e := res.Pos().Dist(w.truth[j])
	out.errM = append(out.errM, e)
	if fixed {
		out.errFixed = append(out.errFixed, e)
	}
	if rec != nil {
		rec.res = append(rec.res, res)
	}
	return d, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// walkSession runs walk k as one session (walk, ingest and migrate).
func (p *phase) walkSession(k int, out *slotStats) error {
	w := &p.walks[k%len(p.walks)]
	id := fmt.Sprintf("w%d-%d-0", p.seed, k)
	c, open, err := p.open(id, p.st.entry(k), w.start, out)
	if c != nil {
		defer closeClient(c, out)
	}
	if err != nil {
		return err
	}
	cur := k % len(p.st.nodes)
	if p.workload == wlMigrate {
		c.SetReconnect(func() (net.Conn, error) { return net.Dial("tcp", p.st.nodes[cur].addr) },
			offload.Backoff{Min: time.Millisecond, Max: 10 * time.Millisecond, Attempts: 10, Seed: p.seed*1000 + int64(k)})
	}
	var rec *served
	if p.sampledWalk(k) {
		rec = &served{walk: k % len(p.walks), start: w.start}
		defer func() { out.sampled = append(out.sampled, *rec) }()
	}
	n := 0
	defer func() { out.uploaded = append(out.uploaded, epochRange{k % len(p.walks), 0, n}) }()
	for j := range w.snaps {
		if j > 0 && p.over() && !p.fixedWalk(k) {
			return nil
		}
		p.gate.RLock()
		d, err := p.walkEpoch(c, id, w, j, &cur, p.fixedWalk(k), out, rec)
		p.gate.RUnlock()
		if err != nil {
			return err
		}
		n++
		if j == 0 {
			out.firstFix = append(out.firstFix, ms(open+d))
			out.firstEpoch = append(out.firstEpoch, us(d))
		}
	}
	return nil
}

// walkEpoch serves epoch j of a walk session — on migrate first moving
// the session to the other node every migrateEvery epochs, on ingest
// first submitting a survey every surveyEvery epochs — and records its
// round trip. The caller holds the calibration gate.
func (p *phase) walkEpoch(c *offload.Client, id string, w *walk, j int, cur *int, fixed bool, out *slotStats, rec *served) (time.Duration, error) {
	moved := false
	if p.workload == wlMigrate && j > 0 && j%migrateEvery == 0 {
		// Move only once the peer provably holds the last answered
		// epoch, so every move exercises fetch-and-resume rather than
		// a shipping race.
		peer := p.st.nodes[1-*cur].ho
		tw := time.Now()
		for {
			if seq, ok := peer.Lookup(id); ok && seq >= uint32(j) {
				break
			}
			if time.Since(tw) > shipWait {
				return 0, fmt.Errorf("%s: peer never received epoch %d", id, j)
			}
			time.Sleep(20 * time.Microsecond)
		}
		out.shipLag = append(out.shipLag, us(time.Since(tw)))
		*cur = 1 - *cur
		_ = c.Close() // the next Localize reconnects to the other node
		out.migrations++
		moved = true
	}
	if p.workload == wlIngest && j%surveyEvery == 0 {
		out.surveys++
		if err := c.SubmitSurvey(offload.MapWiFi, surveyAt(w.truth[j]), w.snaps[j].WiFi); err != nil {
			return 0, fmt.Errorf("%s: survey at epoch %d: %w", id, j, err)
		}
	}
	d, err := p.epoch(c, w, j, fixed, out, rec)
	if err != nil {
		return d, fmt.Errorf("%s: epoch %d: %w", id, j, err)
	}
	if moved {
		out.resume = append(out.resume, ms(d))
	} else {
		out.noteLatency(d)
	}
	return d, nil
}

// churnWalk runs walk k as a chain of short sessions through the
// router, each opened at the segment's true start position.
func (p *phase) churnWalk(k int, out *slotStats) error {
	w := &p.walks[k%len(p.walks)]
	for seg := 0; seg*churnEpochs < len(w.snaps); seg++ {
		if p.over() && !p.fixedWalk(k) {
			return nil
		}
		if err := p.churnSession(k, seg, w, out); err != nil {
			return err
		}
	}
	return nil
}

func (p *phase) churnSession(k, seg int, w *walk, out *slotStats) error {
	from := seg * churnEpochs
	to := from + churnEpochs
	if to > len(w.snaps) {
		to = len(w.snaps)
	}
	id := fmt.Sprintf("w%d-%d-%d", p.seed, k, seg)
	start := w.startOf(from)
	c, open, err := p.open(id, p.st.routerAddr, start, out)
	if c != nil {
		defer closeClient(c, out)
	}
	if err != nil {
		return err
	}
	var rec *served
	if seg%churnSample == 0 {
		rec = &served{walk: k % len(p.walks), from: from, start: start}
		defer func() { out.sampled = append(out.sampled, *rec) }()
	}
	n := 0
	defer func() { out.uploaded = append(out.uploaded, epochRange{k % len(p.walks), from, n}) }()
	for j := from; j < to; j++ {
		p.gate.RLock()
		d, err := p.epoch(c, w, j, p.fixedWalk(k), out, rec)
		p.gate.RUnlock()
		if err != nil {
			return fmt.Errorf("%s: epoch %d: %w", id, j, err)
		}
		n++
		out.noteLatency(d)
		if j == from {
			out.firstFix = append(out.firstFix, ms(open+d))
			out.firstEpoch = append(out.firstEpoch, us(d))
		}
	}
	return nil
}
