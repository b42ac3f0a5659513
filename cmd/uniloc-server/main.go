// Command uniloc-server hosts the UniLoc offload server (§IV-C): it
// trains the error models, builds the campus scheme assets, and serves
// the binary offloading protocol over TCP. Phones (see
// examples/offload) connect, perform the session handshake, upload
// pre-processed sensor epochs, and receive fused positions. Every
// connection gets its own framework instance, so any number of phones
// can walk concurrently without sharing localization state.
//
// The WiFi and cellular fingerprint databases live in versioned
// mapstore.Stores: every session reads the same indexed snapshot, and —
// with -ingest — clients may contribute crowdsourced survey points
// (MsgSurvey) that a background compactor folds into new snapshot
// versions without pausing readers.
//
// With -metrics-addr set, a second HTTP listener exposes the
// telemetry registry (RED metrics: sessions, epochs, frame bytes,
// step-latency histogram, map-store lookups/rebuilds/versions) as
// Prometheus text at /metrics and JSON at /metrics.json, plus expvar
// at /debug/vars and pprof at /debug/pprof/.
//
// Cluster deployment (see DESIGN.md §15): -drain-grace turns SIGTERM
// into a graceful drain — in-flight sessions finish their current
// epoch and close cleanly so clients reconnect through the router
// instead of losing an answer. -replicate-listen makes this node the
// replication leader (it streams map-store compaction deltas to
// followers); -replicate-from makes it a follower (it applies the
// leader's deltas, never compacts locally, and forwards crowdsourced
// surveys upstream).
//
// Transparent node failover (DESIGN.md §17): -handoff-listen and
// -handoff-peers put this node in a session-handoff mesh — after every
// served epoch the session's full framework state (particle sets, HMM
// beliefs, RNG cursors) is shipped asynchronously to the peer nodes,
// and a resumed walk this node never served is fetched from the mesh
// and injected, so a kill -9 of one node restarts zero walks.
// -replicate-from accepts a comma-separated candidate list (leader
// first, standbys after); -standby makes a follower retain the
// leader's delta history and buffer surveys across an outage, and
// SIGUSR1 promotes it in place: it becomes the replication leader,
// drains its survey buffer through the normal compact cycle, and
// serves followers — including their catch-up from the retained
// history — on -replicate-listen.
//
// With -trace, every served epoch becomes a span tree — server.frame
// with read/step/trace.observe/write children and per-scheme spans,
// joined to the client's trace when the phone sends a span context —
// browsable at /debug/traces on the metrics listener, with the slowest
// frames kept as exemplars. -trace-jsonl streams every span to a file for offline
// analysis with uniloc-trace; -pprof-labels additionally labels CPU
// profile samples by session and scheme.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/mapstore"
	"repro/internal/offload"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7031", "listen address")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /debug/vars and /debug/pprof/ on this address (empty = off)")
	seed := flag.Int64("seed", 42, "master random seed")
	maxSessions := flag.Int("max-sessions", 0, "max concurrent sessions (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "evict sessions idle this long (0 = never)")
	epochTimeout := flag.Duration("epoch-timeout", 30*time.Second, "per-epoch protocol deadline; a session that stalls mid-exchange longer than this is evicted (0 = never)")
	statsEvery := flag.Duration("stats-every", 30*time.Second, "log session stats this often (0 = never)")
	ingest := flag.Bool("ingest", false, "accept crowdsourced survey submissions (MsgSurvey) into the shared map stores")
	rebuildBatch := flag.Int("rebuild-batch", 256, "pending survey points that trigger a background snapshot rebuild")
	rebuildEvery := flag.Duration("rebuild-every", 30*time.Second, "also rebuild snapshots on this timer so trickles land (0 = batch-only)")
	stepWorkers := flag.Int("step-workers", 0, "per-session scheme-execution workers (core.WithParallel); <= 1 runs schemes sequentially, results are bit-identical either way")
	sharedCompute := flag.Bool("shared-compute", true, "share version-keyed likelihood rows and HMM neighbor lists across sessions (results stay bit-identical to private compute)")
	traceOn := flag.Bool("trace", false, "span-trace every served epoch; browse at /debug/traces on -metrics-addr")
	traceRing := flag.Int("trace-ring", 4096, "spans kept in the in-memory trace ring (rounded up to a power of two)")
	traceJSONL := flag.String("trace-jsonl", "", "also append every span as JSON lines to this file (implies -trace)")
	traceExemplars := flag.Int("trace-exemplars", 8, "slowest frames kept per exemplar window")
	traceWindow := flag.Duration("trace-window", time.Minute, "exemplar rotation window")
	pprofLabels := flag.Bool("pprof-labels", false, "label CPU profile samples with session and scheme (small per-epoch allocation cost)")
	drainGrace := flag.Duration("drain-grace", 0, "on SIGTERM/SIGINT, stop accepting and let in-flight sessions finish their current epoch for up to this long before force-closing (0 = close immediately)")
	replListen := flag.String("replicate-listen", "", "lead a replication group: stream map-store compaction deltas to followers subscribing on this address")
	replFrom := flag.String("replicate-from", "", "follow a replication leader: comma-separated candidate addresses, tried in order on every (re)connect (local compaction is disabled, surveys are forwarded upstream)")
	standby := flag.Bool("standby", false, "with -replicate-from: retain the leader's delta history, buffer surveys across a leader outage, and promote to replication leader on SIGUSR1, serving followers on -replicate-listen")
	handoffListen := flag.String("handoff-listen", "", "join the session-handoff mesh: serve shipped session states and peer fetches on this address")
	handoffPeers := flag.String("handoff-peers", "", "comma-separated handoff addresses of the other cluster nodes: ship every session's post-epoch state to them, fetch unknown resumed sessions from them")
	flag.Parse()

	cfg := serverOpts{
		addr:          *addr,
		metricsAddr:   *metricsAddr,
		seed:          *seed,
		maxSessions:   *maxSessions,
		idleTimeout:   *idleTimeout,
		epochTimeout:  *epochTimeout,
		statsEvery:    *statsEvery,
		ingest:        *ingest,
		rebuildBatch:  *rebuildBatch,
		rebuildEvery:  *rebuildEvery,
		stepWorkers:   *stepWorkers,
		sharedCompute: *sharedCompute,

		trace:          *traceOn || *traceJSONL != "",
		traceRing:      *traceRing,
		traceJSONL:     *traceJSONL,
		traceExemplars: *traceExemplars,
		traceWindow:    *traceWindow,
		pprofLabels:    *pprofLabels,

		drainGrace:    *drainGrace,
		replListen:    *replListen,
		replFrom:      *replFrom,
		standby:       *standby,
		handoffListen: *handoffListen,
		handoffPeers:  *handoffPeers,
	}
	if err := run(cfg); err != nil {
		log.Fatalf("uniloc-server: %v", err)
	}
}

// serverOpts carries the parsed flags.
type serverOpts struct {
	addr, metricsAddr string
	seed              int64
	maxSessions       int
	idleTimeout       time.Duration
	epochTimeout      time.Duration
	statsEvery        time.Duration
	ingest            bool
	rebuildBatch      int
	rebuildEvery      time.Duration
	stepWorkers       int
	sharedCompute     bool

	trace          bool
	traceRing      int
	traceJSONL     string
	traceExemplars int
	traceWindow    time.Duration
	pprofLabels    bool

	drainGrace    time.Duration
	replListen    string
	replFrom      string
	standby       bool
	handoffListen string
	handoffPeers  string
}

func run(opts serverOpts) error {
	if opts.replListen != "" && opts.replFrom != "" && !opts.standby {
		return fmt.Errorf("-replicate-listen and -replicate-from are mutually exclusive without -standby")
	}
	if opts.standby && (opts.replFrom == "" || opts.replListen == "") {
		return fmt.Errorf("-standby requires -replicate-from (whom to follow) and -replicate-listen (where to serve after promotion)")
	}
	tr, err := eval.Train(opts.seed)
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}
	campus := scenario.NewAssets(scenario.Campus(), opts.seed+100)
	reg := telemetry.NewRegistry()

	// Span tracing: the tracer is shared by the server (frame, queue,
	// step, scheme spans) and the /debug/traces endpoint. Nil when off —
	// the serving path then takes no timestamps and allocates nothing.
	var tracer *trace.Tracer
	if opts.trace {
		cfg := trace.Config{
			RingSize:       opts.traceRing,
			ExemplarK:      opts.traceExemplars,
			ExemplarWindow: opts.traceWindow,
		}
		if opts.traceJSONL != "" {
			f, err := os.OpenFile(opts.traceJSONL, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("trace jsonl: %w", err)
			}
			defer f.Close()
			jw := trace.NewJSONLWriter(f)
			jw.SetMetrics(reg)
			defer func() {
				if n := jw.Drops(); n > 0 {
					log.Printf("trace jsonl: %d spans dropped (last error: %v)", n, jw.Err())
				}
			}()
			cfg.Exporter = jw
		}
		tracer = trace.New(cfg)
	}

	// One fresh framework per session: the scheme instances and their
	// particle-filter randomness are private to the session, while the
	// radio maps live in two versioned stores every session reads
	// through atomic snapshots.
	storeCfg := func(name string) mapstore.Config {
		cfg := mapstore.Config{
			Name:         name,
			RebuildBatch: opts.rebuildBatch,
			RebuildEvery: opts.rebuildEvery,
			Metrics:      mapstore.NewMetrics(reg, name),
		}
		if opts.replFrom != "" {
			// A follower never compacts locally: its only writes are
			// replayed leader deltas (cluster.Follower), so its versions
			// can never fork from the leader's. A standby keeps a real
			// batch size — dormant while following (followers never
			// Submit locally), live the moment promotion makes its
			// Submits the compaction stream — but still no timer, which
			// could fire before promotion.
			cfg.RebuildEvery = 0
			if !opts.standby {
				cfg.RebuildBatch = 1 << 30
			}
		}
		return cfg
	}
	wifiStore := mapstore.New(campus.WiFiDB, storeCfg("wifi"))
	cellStore := mapstore.New(campus.CellDB, storeCfg("cellular"))
	defer wifiStore.Close()
	defer cellStore.Close()
	mapStores := map[byte]*mapstore.Store{
		offload.MapWiFi:     wifiStore,
		offload.MapCellular: cellStore,
	}
	var surveyIngest func(*offload.Survey) error
	switch {
	case opts.replFrom != "":
		addrs := strings.Split(opts.replFrom, ",")
		follower := cluster.NewFollowerAddrs(addrs, mapStores, reg)
		defer follower.Close()
		// Survey ingest goes through an indirection so promotion can
		// swap forward-to-leader for serve-as-leader atomically, with
		// sessions mid-flight.
		var ingest atomic.Value
		ingest.Store(follower.ForwardSurvey)
		surveyIngest = func(sv *offload.Survey) error {
			return ingest.Load().(func(*offload.Survey) error)(sv)
		}
		log.Printf("replicating from %s (surveys forwarded upstream, standby=%v)", opts.replFrom, opts.standby)
		if opts.standby {
			var promoted atomic.Pointer[cluster.Leader]
			defer func() {
				if l := promoted.Load(); l != nil {
					l.Close()
				}
			}()
			promoteSig := make(chan os.Signal, 1)
			signal.Notify(promoteSig, syscall.SIGUSR1)
			go func() {
				<-promoteSig
				signal.Stop(promoteSig)
				rln, err := net.Listen("tcp", opts.replListen)
				if err != nil {
					log.Printf("promotion: replication listener: %v", err)
					return
				}
				l := cluster.Promote(follower, reg)
				promoted.Store(l)
				ingest.Store(l.SurveyIngest)
				go l.ListenAndServe(rln, func(err error) { log.Printf("replication: %v", err) })
				log.Printf("promoted to replication leader on %s (retained deltas seeded, buffered surveys drained)", rln.Addr())
			}()
		}
	case opts.replListen != "":
		leader := cluster.NewLeader(mapStores, reg)
		defer leader.Close()
		rln, err := net.Listen("tcp", opts.replListen)
		if err != nil {
			return fmt.Errorf("replication listener: %w", err)
		}
		defer rln.Close()
		go leader.ListenAndServe(rln, func(err error) { log.Printf("replication: %v", err) })
		log.Printf("replication leader on %s", rln.Addr())
	}
	var sessionSeq atomic.Int64
	factory := func() (*core.Framework, error) {
		n := sessionSeq.Add(1)
		rnd := rand.New(rand.NewSource(opts.seed + 7 + n))
		ss := campus.SchemesOver(wifiStore, cellStore, rnd)
		return core.NewFramework(ss, tr.Models)
	}
	// Shared compute always pins the stores' snapshots; survey
	// ingestion stays gated on -ingest.
	var ingestStores map[byte]*mapstore.Store
	if opts.ingest {
		ingestStores = mapStores
	}

	// Session-handoff mesh: ship every session's post-epoch state to the
	// peer set, fetch-and-inject resumed walks this node never served.
	var shipSession func(clientID string, seq uint32, state []byte)
	var fetchSession func(clientID string) []byte
	if opts.handoffListen != "" || opts.handoffPeers != "" {
		var peers []string
		if opts.handoffPeers != "" {
			peers = strings.Split(opts.handoffPeers, ",")
		}
		ho := cluster.NewHandoff(cluster.HandoffConfig{Peers: peers, Metrics: reg})
		defer ho.Close()
		if opts.handoffListen != "" {
			hln, err := net.Listen("tcp", opts.handoffListen)
			if err != nil {
				return fmt.Errorf("handoff listener: %w", err)
			}
			defer hln.Close()
			go ho.ListenAndServe(hln, func(err error) { log.Printf("handoff: %v", err) })
			log.Printf("session handoff on %s (peers: %v)", hln.Addr(), peers)
		}
		shipSession = ho.Ship
		fetchSession = ho.Fetch
	}

	srv, err := offload.NewServer(offload.ServerConfig{
		Factory:       factory,
		MaxSessions:   opts.maxSessions,
		IdleTimeout:   opts.idleTimeout,
		EpochTimeout:  opts.epochTimeout,
		Metrics:       reg,
		MapStores:     ingestStores,
		StepWorkers:   opts.stepWorkers,
		BatchStores:   mapStores,
		SharedCompute: opts.sharedCompute,
		Tracer:        tracer,
		PprofLabels:   opts.pprofLabels,
		SurveyIngest:  surveyIngest,
		ShipSession:   shipSession,
		FetchSession:  fetchSession,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	log.Printf("uniloc-server listening on %s (campus, max-sessions=%d, idle-timeout=%v, epoch-timeout=%v, ingest=%v, step-workers=%d, shared-compute=%v, trace=%v, pprof-labels=%v)",
		ln.Addr(), opts.maxSessions, opts.idleTimeout, opts.epochTimeout, opts.ingest, opts.stepWorkers, opts.sharedCompute, opts.trace, opts.pprofLabels)

	// Optional exposition endpoint: Prometheus + JSON metrics, expvar,
	// pprof.
	var metricsSrv *http.Server
	if opts.metricsAddr != "" {
		mln, err := net.Listen("tcp", opts.metricsAddr)
		if err != nil {
			_ = ln.Close()
			return fmt.Errorf("metrics listener: %w", err)
		}
		metricsSrv = &http.Server{Handler: telemetry.NewMux(reg,
			telemetry.WithHandler("/debug/traces", trace.Handler(tracer)))}
		go func() {
			log.Printf("metrics on http://%s/metrics (pprof at /debug/pprof/)", mln.Addr())
			if err := metricsSrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	// Periodic stats logging, driven by the telemetry snapshot. The
	// ticker is owned here and stopped on shutdown — a bare time.Tick
	// would leak the goroutine and keep firing into a dead server.
	statsDone := make(chan struct{})
	statsStopped := make(chan struct{})
	go func() {
		defer close(statsStopped)
		if opts.statsEvery <= 0 {
			<-statsDone
			return
		}
		tick := time.NewTicker(opts.statsEvery)
		defer tick.Stop()
		for {
			select {
			case <-statsDone:
				return
			case <-tick.C:
				logStats(reg)
			}
		}
	}()

	// Close the listener on SIGINT/SIGTERM; with -drain-grace, follow
	// up with a graceful drain: in-flight sessions finish their current
	// epoch and close cleanly (clients see EOF, not a reset), stragglers
	// are force-closed when the grace expires. ListenAndServe then
	// drains its connection goroutines and returns.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("received %v, shutting down (drain-grace=%v)", s, opts.drainGrace)
		_ = ln.Close()
		if opts.drainGrace > 0 {
			if forced := srv.Drain(opts.drainGrace); forced > 0 {
				log.Printf("drain grace expired: %d sessions force-closed", forced)
			} else {
				log.Printf("drained cleanly")
			}
		}
	}()

	srv.ListenAndServe(ln, func(err error) { log.Printf("conn error: %v", err) })
	signal.Stop(sig)

	close(statsDone)
	<-statsStopped
	logStats(reg) // final snapshot so short runs still report

	if metricsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = metricsSrv.Shutdown(ctx)
	}
	return nil
}

// logStats renders the session/epoch counters from one telemetry
// snapshot — the same numbers a /metrics scrape would see.
func logStats(reg *telemetry.Registry) {
	snap := reg.Snapshot()
	get := func(name string, labels ...string) float64 {
		v, _ := snap.Get(name, labels...)
		return v
	}
	epochs := get("uniloc_epochs_served_total")
	avgStep := time.Duration(0)
	if h := reg.Histogram("uniloc_step_seconds", "", nil); h.Count() > 0 {
		avgStep = time.Duration(h.Sum() / float64(h.Count()) * float64(time.Second)).Round(time.Microsecond)
	}
	log.Printf("sessions: active=%.0f opened=%.0f closed=%.0f rejected=%.0f evicted=%.0f epochs=%.0f avg-step=%v bytes-in=%.0f bytes-out=%.0f",
		get("uniloc_sessions_active"), get("uniloc_sessions_opened_total"),
		get("uniloc_sessions_closed_total"), get("uniloc_sessions_rejected_total"),
		get("uniloc_sessions_evicted_total"), epochs, avgStep,
		get("uniloc_frame_bytes_total", "dir", "in"), get("uniloc_frame_bytes_total", "dir", "out"))
	log.Printf("health: panics=%.0f quarantined=%.0f fallbacks=%.0f deadline-timeouts=%.0f",
		get("scheme_panics_total"), get("quarantined_estimates_total"),
		get("fallback_epochs_total"), get("deadline_timeouts_total"))
	for _, m := range []string{"wifi", "cellular"} {
		log.Printf("mapstore[%s]: version=%.0f points=%.0f pending=%.0f rebuilds=%.0f ingested=%.0f dropped=%.0f",
			m,
			get("uniloc_mapstore_snapshot_version", "map", m),
			get("uniloc_mapstore_snapshot_points", "map", m),
			get("uniloc_mapstore_pending_points", "map", m),
			get("uniloc_mapstore_rebuilds_total", "map", m),
			get("uniloc_surveys_ingested_total"),
			get("uniloc_surveys_dropped_total"))
	}
}
