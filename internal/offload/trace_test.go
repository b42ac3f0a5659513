package offload

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sensing"
	"repro/internal/telemetry/trace"
)

func TestContextTraceCodec(t *testing.T) {
	tr := trace.New(trace.Config{Seed: 3})
	tctx := trace.SpanContext{Trace: tr.NewTraceID(), Span: tr.NewSpanID()}
	snap := &sensing.Snapshot{Epoch: 77, LightLux: 120, MagVarUT: 1.5, GPSEnabled: true}

	b := EncodeContextTrace(snap, 9, tctx)
	if len(b) != 17+trace.ContextBytes {
		t.Fatalf("v5 context = %d bytes, want %d", len(b), 17+trace.ContextBytes)
	}
	s, seq, back, err := DecodeContextFull(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch != 77 || !s.GPSEnabled || seq != 9 {
		t.Errorf("decoded snap = %+v seq = %d", s, seq)
	}
	if back != tctx {
		t.Errorf("trace context = %+v, want %+v", back, tctx)
	}

	// A zero context still travels (frame length versions the header)
	// but decodes back to "no trace".
	s, seq, back, err = DecodeContextFull(EncodeContextTrace(snap, 9, trace.SpanContext{}))
	if err != nil || back.Valid() {
		t.Errorf("zero context: %+v %v", back, err)
	}
	if s.Epoch != 77 || seq != 9 {
		t.Errorf("zero context snap/seq = %+v %d", s, seq)
	}

	// The untraced 17-byte header decodes without a span context.
	s, seq, back, err = DecodeContextFull(EncodeContextSeq(snap, 5))
	if err != nil || seq != 5 || back.Valid() || s.Epoch != 77 {
		t.Errorf("untraced header: %+v %d %+v %v", s, seq, back, err)
	}
	// Every other length is a protocol error: the 13-byte header
	// without a sequence number, and anything between or beyond.
	for _, n := range []int{0, 13, 16, 18, 20, 40, 42} {
		b := make([]byte, n)
		copy(b, EncodeContextTrace(snap, 9, tctx))
		if _, _, _, err := DecodeContextFull(b); !errors.Is(err, ErrProtocol) {
			t.Errorf("%d-byte context: err = %v, want ErrProtocol", n, err)
		}
	}
}

// waitForSpans polls until the tracer's ring holds at least want spans
// named name. The server ends its frame span after the result write,
// so the last epoch's record lands in the ring slightly after the
// client's Localize returns.
func waitForSpans(t *testing.T, tr *trace.Tracer, name string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := 0
		for _, r := range tr.Snapshot() {
			if r.Name == name {
				n++
			}
		}
		if n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d %q spans, want %d", n, name, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEndToEndTraceSmoke is the acceptance walk: tracing on across
// client and server must yield complete span trees — client.epoch →
// server.frame → {server.read, step → scheme.*, trace.observe,
// server.write} — with the frame's children explaining the bulk of its
// latency. CI runs
// this by name.
func TestEndToEndTraceSmoke(t *testing.T) {
	factory, w := offloadWorld(t)
	// One shared tracer stands in for client and server exporting into
	// the same backend, so Assemble sees whole trees.
	tracer := trace.New(trace.Config{Seed: 31})
	srv := newTestServer(t, ServerConfig{Factory: factory, Tracer: tracer})
	client := pipeClient(t, srv)
	client.SetTracer(tracer)

	const epochs = 12
	start, snaps := corridorWalk(w, 2, 3, epochs)
	runWalk(t, client, start, snaps)
	waitForSpans(t, tracer, "server.frame", epochs)

	trees := trace.Assemble(tracer.Snapshot())
	var complete int
	var frameDur, frameChild int64
	for _, tr := range trees {
		if !tr.Complete() || tr.Root.Name != "client.epoch" {
			continue
		}
		complete++
		names := map[string]*trace.Record{}
		schemes := 0
		for _, s := range tr.Spans {
			names[s.Name] = s
			if strings.HasPrefix(s.Name, "scheme.") {
				schemes++
			}
		}
		frame := names["server.frame"]
		if frame == nil {
			t.Fatalf("trace %s has no server.frame span: %+v", tr.Trace, tr.Spans)
		}
		if frame.Parent != tr.Root.Span {
			t.Errorf("frame span parent = %q, want client root %q", frame.Parent, tr.Root.Span)
		}
		for _, want := range []string{"server.read", "step", "trace.observe", "server.write", "classify", "combine"} {
			if names[want] == nil {
				t.Errorf("trace %s missing %q span", tr.Trace, want)
			}
		}
		if schemes == 0 {
			t.Errorf("trace %s has no scheme spans", tr.Trace)
		}
		cov := trace.CriticalPath(tr, frame)
		frameDur += frame.DurNS
		frameChild += cov.ChildNS
	}
	if complete != epochs {
		t.Fatalf("complete client-rooted traces = %d, want %d", complete, epochs)
	}
	// The acceptance bar: the frame's children (read, step, the
	// tracer's own span synthesis, write) must explain ≥90% of total
	// frame latency. (The paper target is 95%; 90% absorbs scheduling
	// noise on tiny CI boxes — every systematic gap would cost far
	// more than 10%.)
	if frac := float64(frameChild) / float64(frameDur); frac < 0.9 {
		t.Errorf("frame critical-path coverage = %.3f, want >= 0.9", frac)
	}

	// The slowest frames surfaced as exemplars.
	cur, prev := tracer.Exemplars().Snapshot()
	if len(cur)+len(prev) == 0 {
		t.Error("no exemplars collected")
	}
}

// TestTraceOffServesIdentically is the zero-overhead sanity check: a
// server with no tracer must serve a client (which sends no trace
// bytes without a tracer of its own) exactly as a traced pair does.
func TestTraceOffServesIdentically(t *testing.T) {
	factory, w := offloadWorld(t)
	start, snaps := corridorWalk(w, 2, 3, 6)
	srv := newTestServer(t, ServerConfig{Factory: factory})
	results := runWalk(t, pipeClient(t, srv), start, snaps)
	if len(results) != 6 || !results[len(results)-1].OK {
		t.Fatalf("tracer-off walk failed: %+v", results[len(results)-1])
	}

	tracer := trace.New(trace.Config{Seed: 41})
	traced := pipeClient(t, newTestServer(t, ServerConfig{Factory: factory, Tracer: tracer}))
	traced.SetTracer(tracer)
	for i, res := range runWalk(t, traced, start, snaps) {
		if *res != *results[i] {
			t.Fatalf("epoch %d: traced %+v, untraced %+v", i, *res, *results[i])
		}
	}
}
