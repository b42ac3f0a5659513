package main

import (
	"testing"

	"repro/internal/telemetry/trace"
)

// TestAnalyzeSpansSelfTime checks the layer split on a synthetic epoch:
//
//	client.epoch [0,100]
//	  server.frame [10,90]
//	    server.read [10,20]  step [25,80]  server.write [82,88]
//	      (step's own children do not count toward the frame)
func TestAnalyzeSpansSelfTime(t *testing.T) {
	span := func(id, parent, name string, start, end int64) *trace.Record {
		return &trace.Record{Trace: "t1", Span: id, Parent: parent, Name: name, StartNS: start, DurNS: end - start}
	}
	recs := []*trace.Record{
		span("e", "", "client.epoch", 0, 100_000),
		span("f", "e", "server.frame", 10_000, 90_000),
		span("r", "f", "server.read", 10_000, 20_000),
		span("s", "f", "step", 25_000, 80_000),
		span("w", "f", "server.write", 82_000, 88_000),
		span("x", "s", "scheme.fusion", 26_000, 89_000), // grandchild past step's end
		// A second trace whose frame lost its client epoch.
		{Trace: "t2", Span: "g", Parent: "missing", Name: "server.frame", StartNS: 0, DurNS: 1000},
	}
	st := analyzeSpans(recs)
	if st.epochs != 1 || st.orphanFrames != 1 || st.frameless != 0 {
		t.Fatalf("epochs %d, orphan frames %d, frameless %d; want 1, 1, 0", st.epochs, st.orphanFrames, st.frameless)
	}
	// Frame: 80 µs, children cover 10 + 55 + 6 = 71 µs, self 9 µs.
	if len(st.frameSelf) != 2 || st.frameSelf[0] != 9 {
		t.Errorf("frame self times %v, want 9 µs first", st.frameSelf)
	}
	if st.frameCoveredNS != 71_000 || st.frameNS != 81_000 {
		t.Errorf("frame coverage %d of %d ns, want 71000 of 81000", st.frameCoveredNS, st.frameNS)
	}
	// Client epoch: 100 µs, the frame covers 80, gap 20.
	if len(st.gap) != 1 || st.gap[0] != 20 {
		t.Errorf("client gap %v, want [20] µs", st.gap)
	}
	if st.epochCoveredNS != 80_000 || st.epochNS != 100_000 {
		t.Errorf("epoch coverage %d of %d ns, want 80000 of 100000", st.epochCoveredNS, st.epochNS)
	}
	if len(st.read) != 1 || st.read[0] != 10 || len(st.write) != 1 || st.write[0] != 6 {
		t.Errorf("read %v write %v, want [10] [6] µs", st.read, st.write)
	}
}
