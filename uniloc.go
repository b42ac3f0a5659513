// Package uniloc is the public API of the UniLoc reproduction: a
// unified mobile localization framework that runs several localization
// schemes in parallel, predicts each scheme's instantaneous error from
// real-time sensor-data features, and fuses their outputs with a
// locally-weighted Bayesian-Model-Averaging ensemble (Du, Tong, Li —
// "UniLoc: A Unified Mobile Localization Framework Exploiting Scheme
// Diversity", ICDCS 2018).
//
// The package re-exports the framework core plus the simulated
// mobile-sensing substrate (worlds, walkers, radio, GNSS, inertial
// pipeline) that stands in for the paper's physical testbed. A typical
// session:
//
//	place := uniloc.Campus()
//	assets := uniloc.NewAssets(place, 42)
//	trained, _ := uniloc.Train(42)
//	run, _ := uniloc.RunPath(assets, place.Paths[0], trained, uniloc.RunConfig{Seed: 7})
//	fmt.Println(uniloc.Summary(run))
//
// See examples/ for runnable programs and internal/experiments for the
// paper's full evaluation.
package uniloc

import (
	"math/rand"
	"net"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/offload"
	"repro/internal/scenario"
	"repro/internal/schemes"
	"repro/internal/sensing"
	"repro/internal/telemetry"
	"repro/internal/walker"
	"repro/internal/world"
)

// Core framework types.
type (
	// Framework is the UniLoc runtime: N schemes, error models,
	// confidences, and the two ensemble outputs.
	Framework = core.Framework
	// Option configures a Framework.
	Option = core.Option
	// StepResult is everything UniLoc computes for one sensing epoch.
	StepResult = core.StepResult
	// SchemeResult is the per-scheme slice of a StepResult.
	SchemeResult = core.SchemeResult
	// ModelSet holds trained error models per scheme and environment.
	ModelSet = core.ModelSet
	// ErrorModel predicts one scheme's error from its features.
	ErrorModel = core.ErrorModel
	// Trainer accumulates training samples and fits error models.
	Trainer = core.Trainer
	// EnvClass is the indoor/outdoor error-model class.
	EnvClass = core.EnvClass
	// WeightMode selects the BMA weighting variant.
	WeightMode = core.WeightMode
)

// Telemetry types (observability layer).
type (
	// Observer receives one EpochTrace per framework step.
	Observer = telemetry.Observer
	// EpochTrace is the per-epoch structured record: per-scheme
	// estimate/prediction durations, environment class, gating
	// decision, confidences and weights.
	EpochTrace = telemetry.EpochTrace
	// SchemeTrace is one scheme's share of an EpochTrace.
	SchemeTrace = telemetry.SchemeTrace
	// TraceCollector retains every trace for offline analysis.
	TraceCollector = telemetry.Collector
	// MetricsRegistry is a concurrency-safe registry of counters,
	// gauges and histograms with Prometheus/JSON exposition.
	MetricsRegistry = telemetry.Registry
)

// NewMetricsRegistry creates an empty metrics registry, suitable for
// OffloadServerConfig.Metrics and telemetry HTTP exposition.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// Scheme and sensing types.
type (
	// Scheme is a black-box localization scheme.
	Scheme = schemes.Scheme
	// Estimate is a scheme's per-epoch output.
	Estimate = schemes.Estimate
	// Snapshot is one epoch of sensor data.
	Snapshot = sensing.Snapshot
	// Point is a position in the local map frame (meters).
	Point = geo.Point
	// World is a simulated environment.
	World = world.World
	// Place is a world plus its walking paths.
	Place = scenario.Place
	// Path is a named walking trajectory.
	Path = scenario.Path
	// Assets bundles a place's fingerprint databases and GNSS receiver.
	Assets = scenario.Assets
	// WalkerConfig configures snapshot generation along a path.
	WalkerConfig = walker.Config
	// Walker generates sensor snapshots along a path.
	Walker = walker.Walker
)

// Evaluation types.
type (
	// Trained bundles the artifacts of the offline training phase.
	Trained = eval.Trained
	// RunConfig tunes an evaluation walk.
	RunConfig = eval.RunConfig
	// PathRun records every per-epoch outcome of an evaluation walk.
	PathRun = eval.PathRun
)

// Environment classes.
const (
	EnvIndoor  = core.EnvIndoor
	EnvOutdoor = core.EnvOutdoor
)

// Weighting modes for the BMA ensemble.
const (
	WeightPrecision = core.WeightPrecision
	WeightConfOnly  = core.WeightConfOnly
	WeightUniform   = core.WeightUniform
)

// NewFramework builds a UniLoc framework over the given schemes and
// trained error models.
func NewFramework(ss []Scheme, models *ModelSet, opts ...Option) (*Framework, error) {
	return core.NewFramework(ss, models, opts...)
}

// WithGPSGating enables or disables the GPS energy-gating decision.
func WithGPSGating(on bool) Option { return core.WithGPSGating(on) }

// WithWeighting overrides the ensemble weighting mode.
func WithWeighting(mode WeightMode) Option { return core.WithWeighting(mode) }

// WithPruneFrac overrides the confidence-pruning threshold.
func WithPruneFrac(frac float64) Option { return core.WithPruneFrac(frac) }

// WithObserver attaches a telemetry observer that receives one
// EpochTrace per framework step.
func WithObserver(o Observer) Option { return core.WithObserver(o) }

// Campus returns the simulated campus with the eight daily paths.
func Campus() *Place { return scenario.Campus() }

// Mall returns the simulated shopping-mall basement floor.
func Mall() *Place { return scenario.Mall() }

// UrbanOpenSpace returns the simulated urban plaza.
func UrbanOpenSpace() *Place { return scenario.UrbanOpenSpace() }

// TrainingOffice returns the office place used to train indoor error
// models.
func TrainingOffice() *Place { return scenario.TrainingOffice() }

// TrainingOpenSpace returns the open-space place used to train outdoor
// error models.
func TrainingOpenSpace() *Place { return scenario.TrainingOpenSpace() }

// NewAssets surveys a place (fingerprint databases, GNSS receiver)
// deterministically from the seed.
func NewAssets(p *Place, seed int64) *Assets { return scenario.NewAssets(p, seed) }

// NewSchemes returns fresh instances of the five localization schemes
// for a surveyed place, in the canonical order [gps, wifi, cellular,
// motion, fusion].
func NewSchemes(a *Assets, rnd *rand.Rand) []Scheme { return a.Schemes(rnd) }

// Train runs the paper's offline error-modeling workflow and returns
// the trained models plus baseline profiles. Deterministic in the
// seed.
func Train(seed int64) (*Trained, error) { return eval.Train(seed) }

// RunPath walks one path with the full UniLoc stack and every
// individual scheme, recording all per-epoch outcomes.
func RunPath(a *Assets, p Path, tr *Trained, cfg RunConfig) (*PathRun, error) {
	return eval.RunPath(a, p, tr, cfg)
}

// Summary renders mean / median / 90th-percentile error for every
// series of a run as an aligned text table.
func Summary(run *PathRun) string {
	return eval.SummaryTable("run: "+run.Place+"/"+run.Path, eval.Merge([]*eval.PathRun{run})).String()
}

// Offloading types (§IV-C): the phone↔server protocol that moves
// scheme execution, error prediction and BMA off the phone.
type (
	// OffloadServer runs one private framework per connected phone.
	OffloadServer = offload.Server
	// OffloadServerConfig configures the multi-session server
	// (framework factory, session limit, idle eviction).
	OffloadServerConfig = offload.ServerConfig
	// OffloadStats is a snapshot of the server's session counters.
	OffloadStats = offload.Stats
	// OffloadClient is the phone side of the protocol.
	OffloadClient = offload.Client
	// OffloadResult is the server's per-epoch reply.
	OffloadResult = offload.Result
	// FrameworkFactory builds one fresh framework per offload session.
	FrameworkFactory = core.FrameworkFactory
)

// NewOffloadServer builds a multi-session offload server: each
// connecting phone gets its own framework from cfg.Factory, so
// concurrent walks never share localization state.
func NewOffloadServer(cfg OffloadServerConfig) (*OffloadServer, error) {
	return offload.NewServer(cfg)
}

// NewOffloadClient wraps an established connection to an offload
// server. The optional clientID labels the phone in the server's
// per-session stats.
func NewOffloadClient(conn net.Conn, clientID ...string) *OffloadClient {
	return offload.NewClient(conn, clientID...)
}

// NewWalker generates sensor snapshots along a path of a world.
func NewWalker(w *World, p Path, cfg WalkerConfig, rnd *rand.Rand) *Walker {
	return walker.New(w, p.Line, cfg, rnd)
}

// Shared radio-map store: versioned, indexed fingerprint maps that any
// number of sessions read through immutable snapshots while
// crowdsourced survey points are folded in by a background compactor.
type (
	// Fingerprint is one surveyed location with its RSSI vector.
	Fingerprint = fingerprint.Fingerprint
	// FingerprintDB is the plain linear-scan fingerprint database.
	FingerprintDB = fingerprint.DB
	// RadioMap hands out self-consistent read views over a radio map;
	// both *FingerprintDB and *MapStore implement it.
	RadioMap = fingerprint.Map
	// MapStore is a versioned shared radio map with indexed snapshots.
	MapStore = mapstore.Store
	// MapStoreConfig parameterizes a MapStore (rebuild batch/timer,
	// grid cell size, metrics).
	MapStoreConfig = mapstore.Config
)

// Survey map identifiers for OffloadClient.SubmitSurvey.
const (
	MapWiFi     = offload.MapWiFi
	MapCellular = offload.MapCellular
)

// NewMapStore builds a versioned store over a fingerprint database's
// points. The database is copied; the store's background compactor
// starts immediately — call Close to stop it.
func NewMapStore(db *FingerprintDB, cfg MapStoreConfig) *MapStore { return mapstore.New(db, cfg) }

// NewSchemesOver is NewSchemes with the WiFi and cellular radio maps
// supplied by the caller — e.g. shared MapStores serving every session
// from one indexed map — instead of the Assets' private databases.
func NewSchemesOver(a *Assets, wifiMap, cellMap RadioMap, rnd *rand.Rand) []Scheme {
	return a.SchemesOver(wifiMap, cellMap, rnd)
}
