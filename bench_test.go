package uniloc

// The benchmark harness: one benchmark per paper table and figure
// (each regenerates the corresponding rows/series; run with
// `go test -bench . -benchtime 1x` to print every reproduction once),
// plus micro-benchmarks of UniLoc's per-epoch costs — the quantities
// behind the paper's response-time decomposition (Table V).

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/offload"
	"repro/internal/particle"
	"repro/internal/rf"
	"repro/internal/schemes"
	"repro/internal/sensing"
	"repro/internal/telemetry"
)

// benchSuite is shared across benchmarks so training and surveys run
// once per `go test -bench` invocation.
var benchSuite *experiments.Suite

func getSuite(tb testing.TB) *experiments.Suite {
	tb.Helper()
	if benchSuite == nil {
		benchSuite = experiments.NewSuite(42)
		if _, err := benchSuite.Lab.Trained(); err != nil {
			tb.Fatalf("training: %v", err)
		}
	}
	return benchSuite
}

// benchExperiment runs one paper experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	s := getSuite(b)
	e, ok := s.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkTable1InfluenceFactors(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2ErrorModels(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkTable3PredictionRMSE(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkFigure2SchemeDiversity(b *testing.B) { benchExperiment(b, "figure2") }
func BenchmarkFigure3OracleVsUniLoc(b *testing.B)  { benchExperiment(b, "figure3") }
func BenchmarkFigure5SchemeUsage(b *testing.B)     { benchExperiment(b, "figure5") }
func BenchmarkFigure6AverageError(b *testing.B)    { benchExperiment(b, "figure6") }
func BenchmarkFigure7EightPathsCDF(b *testing.B)   { benchExperiment(b, "figure7") }
func BenchmarkFigure8aMall(b *testing.B)           { benchExperiment(b, "figure8a") }
func BenchmarkFigure8bOpenSpace(b *testing.B)      { benchExperiment(b, "figure8b") }
func BenchmarkFigure8cOffice(b *testing.B)         { benchExperiment(b, "figure8c") }
func BenchmarkFigure8dHeterodevices(b *testing.B)  { benchExperiment(b, "figure8d") }
func BenchmarkTable4Energy(b *testing.B)           { benchExperiment(b, "table4") }
func BenchmarkTable5ResponseTime(b *testing.B)     { benchExperiment(b, "table5") }
func BenchmarkAblationWeighting(b *testing.B)      { benchExperiment(b, "ablation-weighting") }
func BenchmarkAblationSpacing(b *testing.B)        { benchExperiment(b, "ablation-spacing") }
func BenchmarkAblationTrainingSize(b *testing.B)   { benchExperiment(b, "ablation-training-size") }

// --- Micro-benchmarks: UniLoc's own per-epoch computation (Table V's
// "error prediction" and "BMA" rows measure these very code paths).

// benchEpoch prepares one realistic mid-walk epoch.
func benchEpoch(b *testing.B, opts ...core.Option) (*core.Framework, []*sensing.Snapshot) {
	campus := getSuite(b).Lab.Campus()
	return benchEpochOver(b, campus.WiFiDB, campus.CellDB, opts...)
}

// benchEpochOver is benchEpoch with the fingerprinting schemes reading
// the given radio maps.
func benchEpochOver(b *testing.B, wifi, cell fingerprint.Map, opts ...core.Option) (*core.Framework, []*sensing.Snapshot) {
	b.Helper()
	s := getSuite(b)
	tr, err := s.Lab.Trained()
	if err != nil {
		b.Fatal(err)
	}
	campus := s.Lab.Campus()
	ss := campus.SchemesOver(wifi, cell, rand.New(rand.NewSource(9)))
	fw, err := core.NewFramework(ss, tr.Models, opts...)
	if err != nil {
		b.Fatal(err)
	}
	path, _ := campus.Place.PathByName("path1")
	start, _ := path.Line.At(0)
	fw.Reset(start)
	rnd := rand.New(rand.NewSource(10))
	wk := NewWalker(campus.Place.World, path, campus.DefaultWalkerConfig(), rnd)
	var snaps []*sensing.Snapshot
	for !wk.Done() {
		snap, _ := wk.Next(true)
		snaps = append(snaps, snap)
	}
	return fw, snaps
}

// BenchmarkFrameworkStep measures one full UniLoc epoch: all five
// schemes, error prediction, confidences, selection and BMA. No
// observer is attached, so this is also the telemetry no-op-path
// guardrail: compare against BenchmarkFrameworkStepObserved to see
// what tracing costs, and against the PR-1 baseline (2485024 ns/op,
// 30 allocs/op) to confirm the untraced hot path did not regress.
func BenchmarkFrameworkStep(b *testing.B) {
	fw, snaps := benchEpoch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Step(snaps[i%len(snaps)])
	}
}

// BenchmarkFrameworkStepSharedMap is BenchmarkFrameworkStep over shared
// mapstore stores, the way every server session reads the radio maps:
// the fingerprinting trackers share the snapshot's HMM transition
// kernel instead of each building its own over a private database.
func BenchmarkFrameworkStepSharedMap(b *testing.B) {
	campus := getSuite(b).Lab.Campus()
	wifi := mapstore.New(campus.WiFiDB, mapstore.Config{Name: "wifi"})
	defer wifi.Close()
	cell := mapstore.New(campus.CellDB, mapstore.Config{Name: "cellular"})
	defer cell.Close()
	fw, snaps := benchEpochOver(b, wifi, cell)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Step(snaps[i%len(snaps)])
	}
}

// BenchmarkFrameworkStepObserved is the same epoch with epoch tracing
// on (a counting observer, the cheapest real sink): the delta vs
// BenchmarkFrameworkStep is the full cost of per-epoch telemetry.
func BenchmarkFrameworkStepObserved(b *testing.B) {
	var traces int
	obs := telemetry.ObserverFunc(func(t *telemetry.EpochTrace) { traces++ })
	fw, snaps := benchEpoch(b, core.WithObserver(obs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Step(snaps[i%len(snaps)])
	}
	if traces < b.N {
		b.Fatalf("observer saw %d traces for %d steps", traces, b.N)
	}
}

// TestFrameworkStepObserverOffNoExtraAllocs is the allocation
// guardrail on the real campus framework: with no observer attached,
// Step must allocate exactly as much as it did before the telemetry
// layer existed (the deterministic stub-scheme equivalent lives in
// internal/core). Measured with tracing ON for comparison, the count
// strictly increases — proving the AllocsPerRun harness would catch a
// regression on the off path.
func TestFrameworkStepObserverOffNoExtraAllocs(t *testing.T) {
	s := experiments.NewSuite(42)
	benchSuite = s
	tr, err := s.Lab.Trained()
	if err != nil {
		t.Fatal(err)
	}
	campus := s.Lab.Campus()
	mkSnaps := func(fw *core.Framework) []*sensing.Snapshot {
		path, _ := campus.Place.PathByName("path1")
		start, _ := path.Line.At(0)
		fw.Reset(start)
		rnd := rand.New(rand.NewSource(10))
		wk := NewWalker(campus.Place.World, path, campus.DefaultWalkerConfig(), rnd)
		var snaps []*sensing.Snapshot
		for !wk.Done() {
			snap, _ := wk.Next(true)
			snaps = append(snaps, snap)
		}
		return snaps
	}
	measure := func(opts ...core.Option) float64 {
		ss := campus.Schemes(rand.New(rand.NewSource(9)))
		fw, err := core.NewFramework(ss, tr.Models, opts...)
		if err != nil {
			t.Fatal(err)
		}
		snaps := mkSnaps(fw)
		snap := snaps[len(snaps)/2]
		fw.Step(snap) // warm caches and lastPred
		return testing.AllocsPerRun(100, func() { fw.Step(snap) })
	}
	off := measure()
	on := measure(core.WithObserver(telemetry.ObserverFunc(func(*telemetry.EpochTrace) {})))
	if on <= off {
		t.Fatalf("tracing on (%v allocs/op) should cost more than off (%v) — harness broken?", on, off)
	}
	// pprof labels are the other opt-in on the step path; the default-off
	// measurement above already proves they cost nothing when gated, and
	// turning them on must register (pprof.Do allocates per scheme).
	labeled := measure(core.WithPprofLabels(true))
	if labeled <= off {
		t.Fatalf("pprof labels on (%v allocs/op) should cost more than off (%v) — gate broken?", labeled, off)
	}
	// The PR-1 framework allocated ~30 objects per step on this walk;
	// the observer-off path must stay in that envelope.
	if off > 30 {
		t.Fatalf("observer-off Step allocates %v objects/op, want <= 30 (PR-1 baseline)", off)
	}
}

// BenchmarkBMACombine measures the BMA weighting + combination alone
// (the paper reports ~0.1 ms).
func BenchmarkBMACombine(b *testing.B) {
	fw, snaps := benchEpoch(b)
	res := fw.Step(snaps[len(snaps)/2])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tau := core.Tau(res.Schemes)
		core.ApplyConfidences(res.Schemes, tau)
		core.CombineBMA(res.Schemes)
	}
}

// BenchmarkErrorPrediction measures one scheme-error prediction (the
// paper reports ~6 ms for all schemes on their workstation).
func BenchmarkErrorPrediction(b *testing.B) {
	s := getSuite(b)
	tr, err := s.Lab.Trained()
	if err != nil {
		b.Fatal(err)
	}
	m := tr.Models.Get("wifi", core.EnvIndoor)
	if m == nil {
		b.Fatal("wifi model missing")
	}
	feats := map[string]float64{"fp_density": 2.5, "rssi_dev": 3.1, "num_aps": 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(feats)
	}
}

// BenchmarkOffloadEncode measures the phone-side wire encoding of one
// epoch.
func BenchmarkOffloadEncode(b *testing.B) {
	_, snaps := benchEpoch(b)
	snap := snaps[len(snaps)/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap.Step != nil {
			offload.EncodeStep(snap.Step)
		}
		offload.EncodeVector(snap.WiFi)
		offload.EncodeVector(snap.Cell)
		offload.EncodeContextSeq(snap, 0)
	}
}

// BenchmarkWiFiMatch measures one RADAR fingerprint match against the
// campus database (dominant server-side cost of the wifi scheme).
func BenchmarkWiFiMatch(b *testing.B) {
	s := getSuite(b)
	campus := s.Lab.Campus()
	_, snaps := benchEpoch(b)
	var scan = snaps[10].WiFi
	db := campus.WiFiDB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Nearest(scan, 3)
	}
}

// --- Map-store benchmarks: the shared radio-map subsystem
// (internal/mapstore). Indexed snapshots must return bit-identical
// results to the linear scans (proven in the mapstore tests); these
// benchmarks quantify what the index buys at city-block map sizes the
// campus databases never reach.

// benchMapDB builds the deterministic synthetic fingerprint database
// the map-store benchmarks share: n grid-jittered points hearing a
// distance-dependent subset of nTx transmitters (same generator family
// as the mapstore equivalence tests, without their adversarial
// duplicate points).
func benchMapDB(n, nTx int, seed int64) *fingerprint.DB {
	rnd := rand.New(rand.NewSource(seed))
	spacing := 3.0
	side := int(math.Ceil(math.Sqrt(float64(n))))
	type tx struct {
		id  string
		pos geo.Point
		p0  float64
	}
	txs := make([]tx, nTx)
	extent := float64(side) * spacing
	for t := range txs {
		txs[t] = tx{
			id:  fmt.Sprintf("ap-%03d", t),
			pos: geo.Pt(rnd.Float64()*extent, rnd.Float64()*extent),
			p0:  -35 - rnd.Float64()*10,
		}
	}
	db := &fingerprint.DB{SpacingM: spacing, Floor: -98}
	for i := 0; i < n; i++ {
		gx, gy := i%side, i/side
		p := geo.Pt(
			(float64(gx)+0.5)*spacing+rnd.NormFloat64()*0.3,
			(float64(gy)+0.5)*spacing+rnd.NormFloat64()*0.3,
		)
		var vec rf.Vector
		for _, t := range txs {
			d := t.pos.Dist(p)
			// Indoor-grade path loss (exponent 3): each transmitter is
			// audible within a few tens of meters, so vectors are sparse
			// and localized like a real site survey, not campus-wide.
			rssi := t.p0 - 30*math.Log10(math.Max(d, 1)) + rnd.NormFloat64()*2
			if rssi < -90 {
				continue
			}
			vec = append(vec, rf.Obs{ID: t.id, RSSI: rssi})
		}
		if len(vec) < 2 {
			vec = rf.Vector{
				{ID: txs[0].id, RSSI: -89},
				{ID: txs[1].id, RSSI: -89.5},
			}
		}
		sort.Slice(vec, func(a, b int) bool { return vec[a].ID < vec[b].ID })
		db.Points = append(db.Points, fingerprint.Fingerprint{Pos: p, Vec: vec})
	}
	return db
}

// benchMapObs draws plausible observation vectors near stored points.
func benchMapObs(db *fingerprint.DB, count int, seed int64) []rf.Vector {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]rf.Vector, count)
	for i := range out {
		base := db.Points[rnd.Intn(len(db.Points))].Vec
		var obs rf.Vector
		for _, o := range base {
			if rnd.Float64() < 0.15 {
				continue
			}
			obs = append(obs, rf.Obs{ID: o.ID, RSSI: o.RSSI + rnd.NormFloat64()*3})
		}
		if len(obs) == 0 {
			obs = append(rf.Vector(nil), base...)
		}
		out[i] = obs
	}
	return out
}

// Map-store benchmark workload: well past the campus database size, the
// regime the shared store is built for (ISSUE acceptance: >= 5k points).
const (
	benchMapPoints = 6000
	benchMapTx     = 150
)

// BenchmarkNearest compares one k=3 fingerprint match on the linear
// database scan vs the indexed snapshot, at a 6000-point map. The two
// return bit-identical matches; the Indexed/Linear ratio is the index's
// speedup (acceptance: >= 5x).
func BenchmarkNearest(b *testing.B) {
	db := benchMapDB(benchMapPoints, benchMapTx, 7)
	snap := mapstore.Build(db, 1, 0, nil)
	obs := benchMapObs(db, 64, 8)
	b.Run("Linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db.Nearest(obs[i%len(obs)], 3)
		}
	})
	b.Run("Indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap.Nearest(obs[i%len(obs)], 3)
		}
	})
}

// BenchmarkDensityAround compares the β₁ density feature (k-nearest
// surveyed positions) on the linear scan vs the grid ring search.
func BenchmarkDensityAround(b *testing.B) {
	db := benchMapDB(benchMapPoints, benchMapTx, 7)
	snap := mapstore.Build(db, 1, 0, nil)
	rnd := rand.New(rand.NewSource(9))
	pts := make([]geo.Point, 64)
	for i := range pts {
		pts[i] = db.Points[rnd.Intn(len(db.Points))].Pos
	}
	b.Run("Linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.DensityAround(pts[i%len(pts)], 3)
		}
	})
	b.Run("Indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			snap.DensityAround(pts[i%len(pts)], 3)
		}
	})
}

// benchFusionOver drives the fusion scheme alone over the campus walk
// with its radio map supplied by m — the per-epoch cost of UniLoc's
// most expensive scheme under either map representation.
func benchFusionOver(b *testing.B, m fingerprint.Map) {
	s := getSuite(b)
	campus := s.Lab.Campus()
	fus := schemes.NewFusion(campus.Place.World, m, schemes.DefaultFusionConfig(), rand.New(rand.NewSource(9)))
	path, _ := campus.Place.PathByName("path1")
	start, _ := path.Line.At(0)
	fus.Reset(start)
	rnd := rand.New(rand.NewSource(10))
	wk := NewWalker(campus.Place.World, path, campus.DefaultWalkerConfig(), rnd)
	var snaps []*sensing.Snapshot
	for !wk.Done() {
		snap, _ := wk.Next(true)
		snaps = append(snaps, snap)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fus.Estimate(snaps[i%len(snaps)])
	}
}

// BenchmarkFusionStep measures one fusion-scheme epoch over the private
// linear database vs a shared indexed store. On the small campus map
// the two should be near parity (the index must not cost anything when
// maps are small); the win appears at benchMapPoints-scale maps, which
// BenchmarkNearest and BenchmarkDensityAround isolate.
func BenchmarkFusionStep(b *testing.B) {
	b.Run("Linear", func(b *testing.B) {
		benchFusionOver(b, getSuite(b).Lab.Campus().WiFiDB)
	})
	b.Run("Indexed", func(b *testing.B) {
		st := mapstore.New(getSuite(b).Lab.Campus().WiFiDB, mapstore.Config{Name: "bench"})
		defer st.Close()
		benchFusionOver(b, st)
	})
}

// BenchmarkStoreReadUnderRebuild measures indexed Nearest throughput
// while a writer goroutine continuously submits survey points and the
// store's compactor rebuilds and swaps snapshots underneath the
// readers — the live crowdsourcing regime. Readers pin a view per
// query, so a swap never blocks or slows an in-flight match beyond the
// one atomic load.
func BenchmarkStoreReadUnderRebuild(b *testing.B) {
	db := benchMapDB(benchMapPoints, benchMapTx, 7)
	st := mapstore.New(db, mapstore.Config{Name: "bench", RebuildBatch: 64})
	defer st.Close()
	obs := benchMapObs(db, 64, 8)

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rnd := rand.New(rand.NewSource(11))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := db.Points[rnd.Intn(len(db.Points))]
			jit := geo.Pt(p.Pos.X+rnd.Float64(), p.Pos.Y+rnd.Float64())
			_ = st.Submit(fingerprint.Fingerprint{Pos: jit, Vec: p.Vec})
			if i%64 == 63 {
				time.Sleep(100 * time.Microsecond) // let a rebuild land
			}
		}
	}()

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			view := st.View()
			view.Nearest(obs[i%len(obs)], 3)
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-writerDone
}

// TestIndexedNearestPrunes is the keep-it-honest guard on the index.
// It deliberately does not assert wall-clock time (timing assertions
// flake on loaded or throttled CI runners); instead it asserts the
// mechanism that delivers the speedup — the cell-visit counters must
// show Nearest examining a small fraction of the grid's non-empty
// cells, where a linear-scan equivalent touches all of them. The 5x
// wall-clock acceptance number is verified via `go test -bench
// BenchmarkNearest` and recorded in bench_output_experiments.txt;
// timing is logged here for reference only.
func TestIndexedNearestPrunes(t *testing.T) {
	db := benchMapDB(benchMapPoints, benchMapTx, 7)
	reg := telemetry.NewRegistry()
	snap := mapstore.Build(db, 1, 0, mapstore.NewMetrics(reg, "guard"))
	obs := benchMapObs(db, 64, 8)

	t0 := time.Now()
	for _, o := range obs {
		got, want := snap.Nearest(o, 3), db.Nearest(o, 3)
		if len(got) != len(want) {
			t.Fatalf("Nearest diverged from linear scan: %v vs %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Nearest diverged from linear scan at %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
	indexed := time.Since(t0)

	nx, ny, nonEmpty := snap.GridStats()
	// Snapshot.Get on a histogram returns its sum: total cells scanned
	// across all queries.
	scanned, ok := reg.Snapshot().Get("uniloc_mapstore_cells_scanned", "map", "guard", "op", "nearest")
	if !ok {
		t.Fatal("cells-scanned histogram not registered")
	}
	mean := scanned / float64(len(obs))
	t.Logf("grid %dx%d, %d non-empty cells; mean %.1f cells scanned per query; %v for %d indexed queries",
		nx, ny, nonEmpty, mean, indexed, len(obs))
	if mean*4 > float64(nonEmpty) {
		t.Errorf("pruning ineffective: mean %.1f cells scanned per Nearest, want < 1/4 of %d non-empty cells",
			mean, nonEmpty)
	}
}

// BenchmarkResample measures one steady-state systematic resampling
// pass of the particle filter at its default population. The double
// buffer from the parallel-pipeline PR makes this allocation-free
// after the first call (TestResampleNoAllocsSteadyState in
// internal/particle asserts exactly 0 allocs/op).
func BenchmarkResample(b *testing.B) {
	f := particle.New(particle.DefaultCount, geo.Pt(0, 0), 2, rand.New(rand.NewSource(5)))
	f.Normalize()
	f.Resample() // warm the double buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Resample leaves uniform normalized weights, so every
		// iteration is a valid steady-state pass.
		f.Resample()
	}
}

// benchOffloadServer measures end-to-end offload-server throughput:
// nc concurrent clients replay the same campus walk over TCP, each
// behind its own session framework reading the shared wifi/cell map
// stores. shared turns on the shared-compute cache. The returned stats
// snapshot carries the cache counters the recorder folds into
// BENCH_epoch.json.
func benchOffloadServer(b *testing.B, nc int, shared bool) offload.Stats {
	b.Helper()
	s := getSuite(b)
	tr, err := s.Lab.Trained()
	if err != nil {
		b.Fatal(err)
	}
	campus := s.Lab.Campus()
	wifiStore := mapstore.New(campus.WiFiDB, mapstore.Config{Name: "bench-wifi"})
	cellStore := mapstore.New(campus.CellDB, mapstore.Config{Name: "bench-cell"})
	defer wifiStore.Close()
	defer cellStore.Close()

	var seed atomic.Int64
	factory := func() (*core.Framework, error) {
		ss := campus.SchemesOver(wifiStore, cellStore, rand.New(rand.NewSource(100+seed.Add(1))))
		return core.NewFramework(ss, tr.Models)
	}
	cfg := offload.ServerConfig{Factory: factory, SharedCompute: shared}
	if shared {
		cfg.BatchStores = map[byte]*mapstore.Store{
			offload.MapWiFi:     wifiStore,
			offload.MapCellular: cellStore,
		}
	}
	srv, err := offload.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.ListenAndServe(ln, nil)
	defer func() { _ = ln.Close() }()

	path, _ := campus.Place.PathByName("path1")
	start, _ := path.Line.At(0)
	wk := NewWalker(campus.Place.World, path, campus.DefaultWalkerConfig(), rand.New(rand.NewSource(11)))
	var snaps []*sensing.Snapshot
	for !wk.Done() {
		snap, _ := wk.Next(true)
		snaps = append(snaps, snap)
	}

	clients := make([]*offload.Client, nc)
	for i := range clients {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		clients[i] = offload.NewClient(conn)
		if err := clients[i].Hello(start); err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / nc
	if per == 0 {
		per = 1
	}
	for _, c := range clients {
		wg.Add(1)
		go func(c *offload.Client) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := c.Localize(snaps[i%len(snaps)]); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.ReportMetric(float64(per*nc)/b.Elapsed().Seconds(), "epochs/s")
	return srv.Stats()
}

// --- BENCH_epoch.json: the machine-readable perf trajectory of the
// per-epoch hot path, recorded once per perf-relevant PR.

// epochBenchEntry is one benchmark row of BENCH_epoch.json.
type epochBenchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// epochBenchShared is the shared-compute summary of the shared server
// row: the cache's lifetime counters and the hit rate sessions saw on
// per-cell likelihood lookups. On a degraded box the hit rate is the
// row's acceptance signal — any speedup over private compute only
// materializes with real parallelism.
type epochBenchShared struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
	Trackers int64   `json:"tracker_shares"`
	Built    int64   `json:"entries_built"`
	Evicted  int64   `json:"entries_evicted"`
}

// epochBenchFile is the committed BENCH_epoch.json document. CPUs
// records the measuring machine; Degraded marks a machine with fewer
// than serverEpochCPUs, on which the server_epoch_64c_* rows measure
// scheduling overhead rather than multicore throughput.
type epochBenchFile struct {
	Schema     string            `json:"schema"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	CPUs       int               `json:"cpus"`
	Degraded   bool              `json:"degraded"`
	Note       string            `json:"note,omitempty"`
	Shared     *epochBenchShared `json:"shared,omitempty"`
	Benchmarks []epochBenchEntry `json:"benchmarks"`
}

// serverEpochCPUs is the core count below which the 64-session server
// rows of BENCH_epoch.json are marked degraded.
const serverEpochCPUs = 4

// TestRecordEpochBench re-measures the per-epoch hot path with
// testing.Benchmark and writes BENCH_epoch.json to the path in
// UNILOC_BENCH_JSON (skipped when unset, so plain `go test` stays
// fast). Regenerate with:
//
//	UNILOC_BENCH_JSON=BENCH_epoch.json go test -run TestRecordEpochBench
//
// CI points it at a scratch path every run to keep the recorder and
// schema from rotting; the committed file is refreshed manually per
// perf PR.
func TestRecordEpochBench(t *testing.T) {
	path := os.Getenv("UNILOC_BENCH_JSON")
	if path == "" {
		t.Skip("set UNILOC_BENCH_JSON=<path> to record BENCH_epoch.json")
	}
	row := func(name string, fn func(*testing.B)) epochBenchEntry {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			t.Fatalf("benchmark %s did not run", name)
		}
		return epochBenchEntry{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
	}
	degraded := runtime.NumCPU() < serverEpochCPUs
	if degraded {
		msg := fmt.Sprintf("BENCH DEGRADED: %d cpus < %d — the server_epoch_64c_* rows "+
			"measure scheduling overhead, not multicore throughput; do not compare across machines",
			runtime.NumCPU(), serverEpochCPUs)
		t.Log(msg)
		fmt.Fprintln(os.Stderr, msg)
	}
	var sharedStats offload.Stats
	doc := epochBenchFile{
		Schema:   "uniloc-bench-epoch/v1.3",
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		CPUs:     runtime.NumCPU(),
		Degraded: degraded,
		Note: "degraded means cpus < 4: the server_epoch_64c_* rows need that many " +
			"cores for the shared-compute cache to show its multicore win; on degraded " +
			"boxes the shared row's acceptance signal is shared.hit_rate > 0.9.",
		Benchmarks: []epochBenchEntry{
			row("framework_step_seq", BenchmarkFrameworkStep),
			row("resample", BenchmarkResample),
			row("fusion_step", func(b *testing.B) {
				benchFusionOver(b, getSuite(b).Lab.Campus().WiFiDB)
			}),
			row("nearest", func(b *testing.B) {
				db := benchMapDB(benchMapPoints, benchMapTx, 7)
				snap := mapstore.Build(db, 1, 0, nil)
				obs := benchMapObs(db, 64, 8)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					snap.Nearest(obs[i%len(obs)], 3)
				}
			}),
			row("server_epoch_64c_unbatched", func(b *testing.B) {
				benchOffloadServer(b, 64, false)
			}),
			row("server_epoch_64c_shared", func(b *testing.B) {
				sharedStats = benchOffloadServer(b, 64, true)
			}),
		},
	}
	if lk := sharedStats.SharedLikHits + sharedStats.SharedLikMisses; lk > 0 {
		doc.Shared = &epochBenchShared{
			Hits:     sharedStats.SharedLikHits,
			Misses:   sharedStats.SharedLikMisses,
			HitRate:  float64(sharedStats.SharedLikHits) / float64(lk),
			Trackers: sharedStats.SharedTrackers,
			Built:    sharedStats.SharedBuilt,
			Evicted:  sharedStats.SharedEvicted,
		}
		// The cache's whole premise is that 64 sessions overlap almost
		// completely; anything under 90% means sharing is broken, on
		// any machine.
		if doc.Shared.HitRate <= 0.9 {
			t.Errorf("shared-compute hit rate %.3f <= 0.9 at 64 sessions", doc.Shared.HitRate)
		}
	} else {
		t.Error("shared server row produced no shared-compute traffic")
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d benchmarks, %d cpus)", path, len(doc.Benchmarks), doc.CPUs)
}
