package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/mapstore"
	"repro/internal/offload"
	"repro/internal/sensing"
	"repro/internal/telemetry/trace"
)

// counters are what a stack's own instruments say about a phase, read
// once every client has finished.
type counters struct {
	stats             offload.Stats
	routed            float64
	ingested, dropped float64
	rebuilds          int64
	wifiVersion       uint64
	wifi              *mapstore.Snapshot
	connErrs          int64
	cellsSum          float64 // WiFi grid cells scanned by VectorAt lookups
	vectorAt          uint64  // WiFi VectorAt lookups
	lookups           float64 // WiFi and cellular map lookups of every kind
}

// measure runs one phase over st for secs seconds, then stops the stack
// and reads its counters. A phase with a calibrator is calibrated
// against the host's speed; the traced phase has none.
func measure(st *stack, cfg runConfig, walks []walk, secs float64, tracer *trace.Tracer, cal *calibrator) (*result, *counters) {
	p := &phase{st: st, workload: cfg.workload, walks: walks, seed: cfg.seed,
		deadline: time.Now().Add(time.Duration(secs * float64(time.Second))), once: cfg.once, tracer: tracer, cal: cal}
	res := p.run()
	c := &counters{
		stats:    st.stats(),
		ingested: st.counter("uniloc_surveys_ingested_total"),
		dropped:  st.counter("uniloc_surveys_dropped_total"),
		connErrs: st.connErrs.Load(),
	}
	c.cellsSum, c.vectorAt = st.histogram("uniloc_mapstore_cells_scanned", "map", "wifi", "op", "vector_at")
	for _, m := range []string{"wifi", "cellular"} {
		for _, op := range []string{"nearest", "distances", "vector_at", "density"} {
			c.lookups += st.counter("uniloc_mapstore_lookups_total", "map", m, "op", op)
		}
	}
	if st.routerReg != nil {
		c.routed, _ = st.routerReg.Snapshot().Get("uniloc_router_routed_total")
	}
	st.close()
	n0 := st.nodes[0]
	c.rebuilds, c.wifiVersion, c.wifi = n0.rebuilds.Load(), n0.wifi.Version(), n0.wifi.Snapshot()
	return res, c
}

// execute performs one invocation: timed set-up, the untraced measured
// phase and its correctness checks, and — with cfg.trace — the traced
// phase on fresh nodes.
func execute(cfg runConfig) (*report, error) {
	sp := specFor(cfg.workload)
	rep := &report{Schema: reportSchema, Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Env: readEnv(cfg.commit), Load: loadShape}
	if cfg.trace {
		rep.Trace = 1
	}

	cal := newCalibrator()
	t, st, s, err := setUp(sp, cal)
	if err != nil {
		return nil, err
	}
	setups := []setupTime{s}

	walks := genWalks(t.campus, cfg.seed, cfg.perPath, cfg.maxEpochs)
	if cfg.workload == wlIngest {
		prepopulate(st.nodes[0].wifi, walks)
	}
	secs := cfg.seconds
	if cfg.trace {
		secs /= 2
	}
	res, cnt := measure(st, cfg, walks, secs, nil, cal)
	rep.Attempted, rep.Failed = res.attempted, res.failed
	endToEnd(rep, cfg.workload, res)
	codecBytes(rep, res)
	if err := checkRun(rep, t, st, cfg, walks, res, cnt); err != nil {
		return nil, err
	}
	// The remaining timed set-ups run after the measured phase rather
	// than back to back, so the median spans more of the host's state.
	for len(setups) < cfg.setups {
		_, st, s, err := setUp(sp, cal)
		if err != nil {
			return nil, err
		}
		st.close()
		setups = append(setups, s)
	}
	var raw, scaled []float64
	for _, s := range setups {
		raw = append(raw, s.secs)
		scaled = append(scaled, s.secs/s.slowdown)
	}
	rep.add("setup_s", "s", median(scaled), len(setups))
	rep.add("raw.setup_s", "s", median(raw), len(setups))
	if cfg.trace {
		if err := traced(rep, t, cfg, walks, secs, res, cnt); err != nil {
			return nil, err
		}
	}
	rep.Correct = rep.allChecksPass() && rep.Failed == 0
	return rep, nil
}

// setupTime is one timed set-up and the host's slowdown around it.
type setupTime struct{ secs, slowdown float64 }

// setUp is one set-up, timed from its start to the nodes listening:
// training, campus assets, stores, servers, router or mesh. The host is
// calibrated just before and just after it.
func setUp(sp spec, cal *calibrator) (*trained, *stack, setupTime, error) {
	runtime.GC() // so no collection of earlier garbage runs beside the calibration
	before := cal.burst(burstSamples / 2)
	t0 := time.Now()
	t, err := train()
	if err != nil {
		return nil, nil, setupTime{}, err
	}
	st, err := newStack(t, sp, nil)
	if err != nil {
		return nil, nil, setupTime{}, fmt.Errorf("starting nodes: %w", err)
	}
	secs := time.Since(t0).Seconds()
	runtime.GC()
	return t, st, setupTime{secs: secs, slowdown: (before + cal.burst(burstSamples/2)) / 2}, nil
}

// endToEnd records the walker's view of an untraced phase.
func endToEnd(rep *report, workload string, res *result) {
	// Speed, latency and CPU are read over windows, each scaled to the
	// reference host speed by its own calibrations: its serving time, CPU
	// time and latencies are divided by its scale. Serving time leaves
	// out the time the stack was held idle for calibration and the time
	// the host took the CPUs away (steal, spread over the CPUs); CPU time
	// leaves out the calibration's own. The raw.* metrics are the same
	// figures unscaled.
	var epochs int
	var secs, secsRef, cpu, cpuRef float64
	var lat, latRef, slow []float64
	ws := res.windows()
	for _, w := range ws {
		s := w.secs - w.paused.Seconds() - w.steal.Seconds()/float64(runtime.NumCPU())
		c := ms(w.cpu - w.calCPU)
		sc := w.scale()
		epochs += w.epochs
		secs += s
		secsRef += s / sc
		cpu += c
		cpuRef += c / sc
		for _, l := range w.lat {
			lat = append(lat, l)
			latRef = append(latRef, l/sc)
		}
		slow = append(slow, w.slowdown)
		ts := windowStat{Secs: w.secs, Epochs: w.epochs, CPUMS: c, StealMS: ms(w.steal), PausedMS: ms(w.paused), Slowdown: w.slowdown}
		if len(w.lat) > 0 {
			sl := sortedCopy(w.lat)
			ts.P50MS, ts.P99MS = percentile(sl, 0.5), percentile(sl, 0.99)
		}
		rep.Timeline = append(rep.Timeline, ts)
	}
	rep.Windows = len(ws)
	rep.add("epochs_per_s", "epochs/s", float64(epochs)/secsRef, epochs)
	rep.pct("epoch_p50_ms", "ms", latRef, 0.5)
	rep.Metrics = append(rep.Metrics, tail("epoch_p99_ms", ws, true))
	rep.add("cpu_ms_per_epoch", "ms", cpuRef/float64(epochs), epochs)
	rep.add("raw.epochs_per_s", "epochs/s", float64(epochs)/secs, epochs)
	rep.pct("raw.epoch_p50_ms", "ms", lat, 0.5)
	rep.Metrics = append(rep.Metrics, tail("raw.epoch_p99_ms", ws, false))
	rep.add("raw.cpu_ms_per_epoch", "ms", cpu/float64(epochs), epochs)
	rep.add("host.slowdown", "ratio", median(slow), len(res.host))
	rep.pct("err_p50_m", "m", res.errFixed, 0.5)
	rep.add("rss_peak_mb", "MB", float64(res.rssPeak)/(1<<20), min(int(res.epochs), rssEpochs))
	rep.add("rss_run_peak_mb", "MB", float64(res.rssPeakWhole)/(1<<20), int(res.epochs))
	rep.add("fail_frac", "ratio", float64(res.failed)/float64(res.attempted), int(res.attempted))
	rep.pct("first_fix_p50_ms", "ms", res.firstFix, 0.5)
	rep.pct("first_fix_p99_ms", "ms", res.firstFix, 0.99)
	if workload == wlMigrate {
		rep.pct("resume_p50_ms", "ms", res.resume, 0.5)
		rep.pct("resume_p95_ms", "ms", res.resume, 0.95)
	}
	rep.add("sessions", "count", float64(res.sessions), 0)
	rep.dist("epoch", "ms", res.lat)
	rep.dist("first_fix", "ms", res.firstFix)
	rep.dist("err", "m", res.errM) // whole run: covers more walks the faster the stack
	if workload == wlMigrate {
		rep.dist("resume", "ms", res.resume)
	}
}

// tailSpan is how many consecutive windows one reading of the tail
// spans: enough epochs for a supported p99 even on a slow host.
const tailSpan = 4

// tail reads a phase's p99 latency as the median, over spans of
// tailSpan consecutive windows, of each span's p99, so a burst of host
// trouble moves only the spans it falls in. With scaled set every
// latency is divided by its window's scale. A phase shorter than one
// span is read whole.
func tail(name string, ws []window, scaled bool) metric {
	var spans [][]window
	for k := 0; k+tailSpan <= len(ws); k += tailSpan {
		spans = append(spans, ws[k:k+tailSpan])
	}
	if len(spans) == 0 {
		spans = [][]window{ws}
	}
	var tails []float64
	n, ok := 0, true
	for _, span := range spans {
		var lat []float64
		for _, w := range span {
			for _, l := range w.lat {
				if scaled {
					l /= w.scale()
				}
				lat = append(lat, l)
			}
		}
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		tails = append(tails, percentile(lat, 0.99))
		n += len(lat)
		ok = ok && supported(len(lat), 0.99)
	}
	return metric{Name: name, Unit: "ms", Value: median(tails), N: n, Q: 0.99, Supported: &ok}
}

// codecBytes records the untraced clients' bytes on the wire per epoch
// (a traced client adds a 24-byte span context to every epoch).
func codecBytes(rep *report, res *result) {
	rep.add("codec.up_bytes_per_epoch", "bytes", float64(res.bytesUp)/float64(res.epochs), int(res.epochs))
	rep.add("codec.down_bytes_per_epoch", "bytes", float64(res.bytesDown)/float64(res.epochs), int(res.epochs))
}

// checkRun verifies the untraced phase: no failed epoch, sampled
// sessions bit-identical to a reference framework (or, on ingest, the
// ingest invariants), and the stack's counters agreeing with the
// harness's.
func checkRun(rep *report, t *trained, st *stack, cfg runConfig, walks []walk, res *result, cnt *counters) error {
	rep.check("no_failed_epochs", res.failed == 0 && len(res.failures) == 0, "%d of %d failed%s", res.failed, res.attempted, firstOf(res.failures))
	rep.check("no_connection_errors", cnt.connErrs == 0, "%d", cnt.connErrs)
	rep.check("epochs_served", cnt.stats.EpochsServed >= res.epochs, "servers %d, walkers %d", cnt.stats.EpochsServed, res.epochs)

	wifi, cell := fingerprint.Map(st.nodes[0].wifi), fingerprint.Map(st.nodes[0].cell)
	if cfg.workload == wlIngest {
		// The reference is the same walks without crowdsourcing: fresh
		// stores over the original survey.
		w := mapstore.New(t.campus.WiFiDB, mapstore.Config{Name: "wifi"})
		c := mapstore.New(t.campus.CellDB, mapstore.Config{Name: "cellular"})
		defer w.Close()
		defer c.Close()
		wifi, cell = w, c
	}
	ref, err := replay(t.factory(wifi, cell, nil), walks, res.sampled, cfg.trace)
	if err != nil {
		return fmt.Errorf("reference replay: %w", err)
	}
	paths := map[int]bool{}
	for _, s := range res.sampled {
		paths[walks[s.walk].path] = true
	}
	ran := map[int]bool{}
	for _, u := range res.uploaded {
		ran[walks[u.walk].path] = true
	}
	rep.check("reference_covers_paths", len(paths) == len(ran) && ref.sessions > 0,
		"%d sessions (%d epochs) replayed on %d of %d paths run", ref.sessions, ref.epochs, len(paths), len(ran))

	switch cfg.workload {
	case wlIngest:
		submitted := float64(res.surveys)
		rep.check("surveys_accounted", submitted == cnt.ingested+cnt.dropped,
			"submitted %v = ingested %v + dropped %v", submitted, cnt.ingested, cnt.dropped)
		rep.check("rebuilds_match_version", uint64(cnt.rebuilds) == cnt.wifiVersion-1,
			"%d rebuild callbacks, wifi store at version %d", cnt.rebuilds, cnt.wifiVersion)
		served, refErr := median(ref.servedErrM), median(ref.refErrM)
		rep.check("ingest_error_bounded", served <= 1.1*refErr,
			"sampled walks: p50 error %.3f m with ingest, %.3f m without (limit 1.1x)", served, refErr)
		rep.add("err_noingest_p50_m", "m", refErr, len(ref.refErrM))
	default:
		rep.check("bit_identical", ref.mismatches == 0, "%d mismatches in %d epochs %s", ref.mismatches, ref.epochs, ref.firstMismatch)
	}
	switch cfg.workload {
	case wlChurn:
		rep.check("router_routed_sessions", cnt.routed == float64(res.sessions), "routed %v, sessions %d", cnt.routed, res.sessions)
	case wlMigrate:
		rep.check("injected_migrations", cnt.stats.Injected == res.migrations && cnt.stats.InjectFailures == 0,
			"injected %d (failures %d), migrations %d", cnt.stats.Injected, cnt.stats.InjectFailures, res.migrations)
	}
	if cfg.trace {
		rep.pct("handoff.export_us_p50", "us", ref.export.v, 0.5)
		rep.pct("handoff.restore_us_p50", "us", ref.restore.v, 0.5)
		rep.mean("handoff.state_bytes", "bytes", ref.stateBytes.v)
	}
	return nil
}

func firstOf(fs []string) string {
	if len(fs) == 0 {
		return ""
	}
	return "; first: " + fs[0]
}

// traced runs the traced phase on fresh nodes and records the
// per-layer metrics.
func traced(rep *report, t *trained, cfg runConfig, walks []walk, secs float64, untraced *result, ucnt *counters) error {
	pr := &probes{observer: newEpochObserver()}
	exp := &memExporter{}
	pr.tracer = trace.New(trace.Config{RingSize: traceRing, Exporter: exp})
	st, err := newStack(t, specFor(cfg.workload), pr)
	if err != nil {
		return fmt.Errorf("starting traced nodes: %w", err)
	}
	if cfg.workload == wlIngest {
		prepopulate(st.nodes[0].wifi, walks)
	}
	res, cnt := measure(st, cfg, walks, secs, pr.tracer, nil)
	rep.Attempted += res.attempted
	rep.Failed += res.failed
	rep.check("traced_no_failed_epochs", res.failed == 0 && len(res.failures) == 0, "%d of %d failed%s", res.failed, res.attempted, firstOf(res.failures))

	codecTimes(rep, walks, res.uploaded)
	sp := analyzeSpans(exp.records())
	rep.pct("client.gap_us_p50", "us", sp.gap, 0.5)
	rep.pct("server.frame_us_p50", "us", sp.frame, 0.5)
	rep.pct("server.frame_us_p99", "us", sp.frame, 0.99)
	rep.pct("server.read_us_p50", "us", sp.read, 0.5)
	rep.pct("server.write_us_p50", "us", sp.write, 0.5)
	rep.pct("server.frame_self_us_p50", "us", sp.frameSelf, 0.5)

	rep.pct("session.hello_us_p50", "us", res.hello, 0.5)
	rep.pct("session.hello_us_p99", "us", res.hello, 0.99)
	rep.pct("session.factory_us_p50", "us", pr.factory.sorted(), 0.5)
	rep.pct("session.first_epoch_us_p50", "us", res.firstEpoch, 0.5)
	rep.dist("server.frame", "us", sp.frame)
	rep.dist("session.hello", "us", res.hello)

	ob := pr.observer
	ob.mu.Lock()
	rep.pct("core.step_us_p50", "us", ob.step, 0.5)
	rep.pct("core.step_us_p99", "us", ob.step, 0.99)
	rep.pct("core.classify_us_p50", "us", ob.classify, 0.5)
	rep.pct("core.predict_us_p50", "us", ob.predict, 0.5)
	rep.pct("core.combine_us_p50", "us", ob.combine, 0.5)
	for _, name := range schemeNames {
		rep.pct("scheme."+name+".estimate_us_p50", "us", ob.estimate[name], 0.5)
	}
	rep.pct("scheme.wifi.estimate_us_p99", "us", ob.estimate["wifi"], 0.99)
	rep.pct("scheme.fusion.estimate_us_p99", "us", ob.estimate["fusion"], 0.99)
	for _, name := range schemeNames {
		rep.add("scheme."+name+".avail_frac", "ratio", float64(ob.available[name])/float64(ob.epochs), ob.epochs)
	}
	ob.mu.Unlock()

	s := cnt.stats
	lookups := s.SharedLikHits + s.SharedLikMisses
	rep.add("shared.hit_frac", "ratio", float64(s.SharedLikHits)/float64(lookups), int(lookups))
	rep.add("shared.hits", "count", float64(s.SharedLikHits), 0)
	rep.add("shared.lookups", "count", float64(lookups), 0)
	rep.add("shared.entries_built", "count", float64(s.SharedBuilt), 0)
	rep.add("shared.trackers", "count", float64(s.SharedTrackers), 0)

	rep.add("mapstore.build_ms", "ms", timeBuild(ucnt.wifi), timingPasses)
	rep.add("mapstore.cells_per_vector_at", "count", cnt.cellsSum/float64(cnt.vectorAt), int(cnt.vectorAt))
	rep.add("mapstore.lookups_per_epoch", "count", cnt.lookups/float64(res.epochs), int(res.epochs))
	rep.add("mapstore.points_final", "count", float64(cnt.wifi.Len()), 0)
	if cfg.workload == wlIngest {
		rep.pct("mapstore.submit_us_p50", "us", pr.submit.sorted(), 0.5)
		rep.add("mapstore.rebuilds", "count", float64(cnt.rebuilds), 0)
		vis := pr.visible.ms.sorted()
		rep.pct("mapstore.visible_ms_p50", "ms", vis, 0.5)
		rep.pct("mapstore.visible_ms_p95", "ms", vis, 0.95)
	}
	if cfg.workload == wlMigrate {
		rep.add("handoff.ship_bytes_per_epoch", "bytes", float64(pr.shipBytes.Load())/float64(res.epochs), int(pr.shipCalls.Load()))
		rep.pct("handoff.ship_us_p50", "us", pr.ship.sorted(), 0.5)
		rep.pct("handoff.ship_lag_us_p50", "us", res.shipLag, 0.5)
		rep.pct("handoff.ship_lag_us_p95", "us", res.shipLag, 0.95)
		rep.pct("handoff.fetch_us_p50", "us", pr.fetch.sorted(), 0.5)
	}

	// Runtime costs come from the untraced phase: span records would
	// dominate the traced phase's allocations.
	ue := float64(untraced.epochs)
	rep.add("go.alloc_bytes_per_epoch", "bytes", untraced.goDelta.allocBytes/ue, int(untraced.epochs))
	rep.add("go.gc_cpu_frac", "ratio", untraced.goDelta.gcCPU/untraced.goDelta.totalCPU, 0)

	tracedCPU := ms(res.cpu) / float64(res.epochs)
	untracedCPU := ms(untraced.cpu) / ue
	rep.add("trace.overhead_frac", "ratio", tracedCPU/untracedCPU-1, int(res.epochs))
	frameCov := float64(sp.frameCoveredNS) / float64(sp.frameNS)
	rep.add("trace.frame_covered_frac", "ratio", frameCov, len(sp.frame))
	rep.add("trace.epoch_covered_frac", "ratio", float64(sp.epochCoveredNS)/float64(sp.epochNS), sp.epochs)
	rep.add("trace.spans_per_epoch", "count", float64(pr.tracer.Spans())/float64(res.epochs), int(res.epochs))
	rep.add("trace.dropped", "count", float64(pr.tracer.Dropped()), 0)
	rep.check("trace_complete", pr.tracer.Dropped() == 0 && sp.orphanFrames == 0 && sp.frameless == 0 && sp.epochs == int(res.epochs),
		"dropped %d, frames without client epoch %d, client epochs without frame %d, traced epochs %d of %d",
		pr.tracer.Dropped(), sp.orphanFrames, sp.frameless, sp.epochs, res.epochs)
	rep.check("trace_frame_covered", frameCov >= 0.9, "read ∪ step ∪ write cover %.3f of server.frame (want >= 0.9)", frameCov)
	return nil
}

// timingPasses is how many times a timed loop is repeated; the median
// pass is reported, so a GC cycle landing in one pass does not.
const timingPasses = 5

// codecTimes times the protocol codec on the epochs the traced phase
// uploaded: every Encode* call Client.Localize makes, then every Decode*
// the server makes, per epoch.
func codecTimes(rep *report, walks []walk, uploaded []epochRange) {
	var snaps []*sensing.Snapshot
	for _, u := range uploaded {
		snaps = append(snaps, walks[u.walk].snaps[u.from:u.from+u.n]...)
	}
	n := float64(len(snaps))
	frames := make([][]frame, len(snaps))
	var enc, dec []float64
	for pass := 0; pass < timingPasses; pass++ {
		t0 := time.Now()
		for i, s := range snaps {
			frames[i] = encodeEpoch(s, uint32(i+1))
		}
		enc = append(enc, us(time.Since(t0))/n)
		t1 := time.Now()
		for _, fs := range frames {
			if _, err := decodeEpoch(fs); err != nil {
				rep.check("codec_round_trip", false, "%v", err)
				return
			}
		}
		dec = append(dec, us(time.Since(t1))/n)
	}
	rep.add("codec.encode_us", "us", median(enc), len(snaps))
	rep.add("codec.decode_us", "us", median(dec), len(snaps))
}

// timeBuild times mapstore.Build over the final WiFi map's points.
func timeBuild(snap *mapstore.Snapshot) float64 {
	db := &fingerprint.DB{SpacingM: snap.Spacing(), Floor: snap.FloorDB()}
	for i := 0; i < snap.Len(); i++ {
		db.Points = append(db.Points, snap.At(i))
	}
	var d []float64
	for i := 0; i < timingPasses; i++ {
		t0 := time.Now()
		mapstore.Build(db, 1, 0, nil)
		d = append(d, ms(time.Since(t0)))
	}
	return median(d)
}
