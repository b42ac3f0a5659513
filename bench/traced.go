package main

import (
	"sync"

	"repro/internal/schemes"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// traceRing is the tracer's in-memory ring size; the traced phase stops
// at spanBudget so the ring never wraps (trace.dropped stays 0).
const (
	traceRing  = 1 << 17
	spanBudget = traceRing - 4096
)

// memExporter keeps every completed span in memory until the phase
// ends.
type memExporter struct {
	mu   sync.Mutex
	recs []*trace.Record
}

func (m *memExporter) ExportSpan(r *trace.Record) {
	m.mu.Lock()
	m.recs = append(m.recs, r)
	m.mu.Unlock()
}

func (m *memExporter) records() []*trace.Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*trace.Record(nil), m.recs...)
}

// schemeNames is the canonical scheme order.
var schemeNames = []string{schemes.NameGPS, schemes.NameWiFi, schemes.NameCellular, schemes.NameMotion, schemes.NameFusion}

// epochObserver aggregates the framework's per-epoch traces
// (core.WithObserver) across every session of the traced phase.
type epochObserver struct {
	mu                               sync.Mutex
	epochs                           int
	step, classify, predict, combine []float64 // µs
	estimate                         map[string][]float64
	available                        map[string]int
}

func newEpochObserver() *epochObserver {
	return &epochObserver{estimate: make(map[string][]float64), available: make(map[string]int)}
}

func (o *epochObserver) ObserveEpoch(t *telemetry.EpochTrace) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.epochs++
	o.step = append(o.step, float64(t.StepNS)/1e3)
	o.classify = append(o.classify, float64(t.ClassifyNS)/1e3)
	o.predict = append(o.predict, float64(t.PredictNS)/1e3)
	o.combine = append(o.combine, float64(t.CombineNS)/1e3)
	for _, s := range t.Schemes {
		o.estimate[s.Scheme] = append(o.estimate[s.Scheme], float64(s.EstimateNS)/1e3)
		if s.Available {
			o.available[s.Scheme]++
		}
	}
}

// spanStats is the per-epoch layer split read off assembled traces.
type spanStats struct {
	epochs                  int       // client.epoch spans with their server.frame
	frame, frameSelf        []float64 // µs: server.frame and its uncovered self time
	read, write             []float64 // µs
	gap                     []float64 // µs: client.epoch time not covered by server.frame
	frameNS, frameCoveredNS int64
	epochNS, epochCoveredNS int64
	orphanFrames            int // server.frame spans whose client.epoch is missing
	frameless               int // client.epoch spans whose server.frame is missing
}

// analyzeSpans assembles span records into traces and splits each
// epoch's time: the client's epoch span covers the server's frame span,
// which covers read, step and write; whatever a span's children do not
// cover is its self time (trace.CriticalPath).
func analyzeSpans(recs []*trace.Record) *spanStats {
	st := &spanStats{}
	for _, tr := range trace.Assemble(recs) {
		var epoch, frame *trace.Record
		for _, s := range tr.Spans {
			switch s.Name {
			case "client.epoch":
				epoch = s
			case "server.frame":
				frame = s
			case "server.read":
				st.read = append(st.read, float64(s.DurNS)/1e3)
			case "server.write":
				st.write = append(st.write, float64(s.DurNS)/1e3)
			}
		}
		if frame != nil {
			cov := trace.CriticalPath(tr, frame)
			st.frame = append(st.frame, float64(frame.DurNS)/1e3)
			st.frameSelf = append(st.frameSelf, float64(cov.GapNS)/1e3)
			st.frameNS += frame.DurNS
			st.frameCoveredNS += cov.ChildNS
		}
		switch {
		case epoch == nil && frame == nil:
		case epoch == nil:
			st.orphanFrames++
		case frame == nil:
			st.frameless++
		default:
			st.epochs++
			cov := trace.CriticalPath(tr, epoch)
			st.gap = append(st.gap, float64(cov.GapNS)/1e3)
			st.epochNS += epoch.DurNS
			st.epochCoveredNS += cov.ChildNS
		}
	}
	return st
}
