package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/offload"
	"repro/internal/schemes"
	"repro/internal/telemetry"
	"repro/internal/walker"
)

// phonePreprocessMS models the phone-side cost of the 50 Hz inertial
// inference (step detection + heading averaging) per epoch. The
// paper's Nexus 5 measurement is a few milliseconds; our simulator
// generates steps directly, so this constant stands in for the
// workload the phone would run (documented in EXPERIMENTS.md).
const phonePreprocessMS = 3.8

// TableV regenerates Table V: the response-time decomposition of one
// location estimation. Server-side computation (scheme execution,
// error prediction, BMA) is derived from measured epoch traces: the
// walk runs through a real core.Framework carrying a telemetry
// observer, exactly the instrumentation a production uniloc-server
// exposes, so these numbers are the live pipeline's own timing rather
// than an offline re-enactment. Transfer times come from the link
// model applied to the protocol's real byte counts. If the suite has a
// TraceWriter, every epoch trace is also exported as JSONL.
func (s *Suite) TableV() (*Report, error) {
	tr, err := s.Lab.Trained()
	if err != nil {
		return nil, err
	}
	campus := s.Lab.Campus()
	path, ok := campus.Place.PathByName("path1")
	if !ok {
		return nil, fmt.Errorf("experiments: path1 missing")
	}

	// Independent streams for the schemes and the walker: sharing one
	// source would couple the walk to scheme construction order.
	ss := campus.Schemes(rand.New(rand.NewSource(s.Lab.Seed + 901)))
	wkRnd := rand.New(rand.NewSource(s.Lab.Seed + 902))

	col := &telemetry.Collector{}
	var obs telemetry.Observer = col
	if s.TraceWriter != nil {
		obs = telemetry.MultiObserver(col, telemetry.NewJSONLWriter(s.TraceWriter))
	}
	fw, err := core.NewFramework(ss, tr.Models, core.WithObserver(obs))
	if err != nil {
		return nil, err
	}
	start, _ := path.Line.At(0)
	fw.Reset(start)
	wk := walker.New(campus.Place.World, path.Line, campus.DefaultWalkerConfig(), wkRnd)

	var upBytes, downBytes int
	epochs := 0
	for !wk.Done() && epochs < 400 {
		snap, _ := wk.Next(true)
		epochs++
		fw.Step(snap)

		// Wire sizes for this epoch.
		if snap.Step != nil {
			upBytes += 3 + len(offload.EncodeStep(snap.Step))
		}
		if len(snap.WiFi) > 0 {
			upBytes += 3 + len(offload.EncodeVector(snap.WiFi))
		}
		if len(snap.Cell) > 0 {
			upBytes += 3 + len(offload.EncodeVector(snap.Cell))
		}
		if snap.GNSS.Reliable() {
			upBytes += 3 + len(offload.EncodeFix(snap.GNSS))
		}
		upBytes += 3 + len(offload.EncodeContextSeq(snap, 0)) + 3
		downBytes += 3 + len(offload.EncodeResult(&offload.Result{Selected: schemes.NameFusion}))
	}
	if epochs == 0 {
		return nil, fmt.Errorf("experiments: no epochs walked")
	}

	// Decompose the measured traces: per-scheme estimate time, total
	// error-prediction time, and combination (τ + weighting +
	// selection + BMA) time.
	traces := col.Traces()
	if len(traces) != epochs {
		return nil, fmt.Errorf("experiments: observer saw %d traces for %d epochs", len(traces), epochs)
	}
	schemeNS := make(map[string]time.Duration, len(ss))
	var predNS, bmaNS time.Duration
	for _, t := range traces {
		for _, st := range t.Schemes {
			schemeNS[st.Scheme] += time.Duration(st.EstimateNS)
		}
		predNS += time.Duration(t.PredictNS)
		bmaNS += time.Duration(t.CombineNS)
	}

	link := offload.WiFiLink()
	upMS := float64(link.TransferTime(upBytes/epochs)) / float64(time.Millisecond)
	downMS := float64(link.TransferTime(downBytes/epochs)) / float64(time.Millisecond)

	perScheme := &eval.Table{
		Title:   "Per-scheme server computation per location estimate (measured traces)",
		Headers: []string{"scheme", "server (ms)", "phone (ms)"},
	}
	ms := func(d time.Duration) float64 {
		return float64(d) / float64(epochs) / float64(time.Millisecond)
	}
	slowest := 0.0
	for _, name := range schemeOrder {
		v := ms(schemeNS[name])
		if v > slowest {
			slowest = v
		}
		phone := 0.0
		if name == schemes.NameMotion || name == schemes.NameFusion {
			phone = phonePreprocessMS
		}
		perScheme.AddRow(name, fmt.Sprintf("%.3f", v), fmt.Sprintf("%.2f", phone))
	}

	predMS := ms(predNS)
	bmaMS := ms(bmaNS)
	total := phonePreprocessMS + upMS + slowest + predMS + bmaMS + downMS
	decomp := &eval.Table{
		Title:   "Response-time decomposition per location estimate",
		Headers: []string{"component", "time (ms)"},
	}
	decomp.AddRow("phone pre-processing", fmt.Sprintf("%.2f", phonePreprocessMS))
	decomp.AddRow("upload (wifi link)", fmt.Sprintf("%.2f", upMS))
	decomp.AddRow("slowest scheme (parallel exec)", fmt.Sprintf("%.3f", slowest))
	decomp.AddRow("error prediction (all schemes)", fmt.Sprintf("%.3f", predMS))
	decomp.AddRow("BMA", fmt.Sprintf("%.3f", bmaMS))
	decomp.AddRow("download", fmt.Sprintf("%.2f", downMS))
	decomp.AddRow("total", fmt.Sprintf("%.2f", total))

	return &Report{
		ID: "Table V", Title: "average response time for one location estimation",
		Tables: []*eval.Table{perScheme, decomp},
		Notes: []string{
			fmt.Sprintf("server compute measured from %d observer epoch traces (core.WithObserver)", len(traces)),
			fmt.Sprintf("transmissions account for %.0f%% of the total (paper: 73%%)", (upMS+downMS)/total*100),
			fmt.Sprintf("avg payloads: %d B up, %d B down per epoch", upBytes/epochs, downBytes/epochs),
			"paper shape: UniLoc's own additions (error prediction + BMA) are milliseconds; the schemes run in parallel so the slowest dominates server compute",
		},
	}, nil
}
