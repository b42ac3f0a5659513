package trace

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// rec is a shorthand constructor for hand-built span records.
func rec(traceID, span, parent, name string, start, dur int64) *Record {
	return &Record{Trace: traceID, Span: span, Parent: parent, Name: name, StartNS: start, DurNS: dur}
}

func TestAssembleGroupsAndRoots(t *testing.T) {
	recs := []*Record{
		rec("t1", "b", "a", "child", 15, 5),
		rec("t1", "a", "", "root", 10, 20),
		rec("t2", "x", "missing", "orphan", 100, 3),
	}
	trees := Assemble(recs)
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2", len(trees))
	}
	// Newest start first: t2 (100) before t1 (10).
	if trees[0].Trace != "t2" || trees[1].Trace != "t1" {
		t.Fatalf("order = %s, %s", trees[0].Trace, trees[1].Trace)
	}
	t1 := trees[1]
	if !t1.Complete() || t1.Root.Span != "a" {
		t.Errorf("t1 root = %+v", t1.Root)
	}
	if t1.StartNS != 10 || t1.DurNS != 20 {
		t.Errorf("t1 extent = %d +%d, want 10 +20", t1.StartNS, t1.DurNS)
	}
	if t1.Spans[0].Span != "a" || t1.Spans[1].Span != "b" {
		t.Errorf("t1 spans not sorted by start: %+v", t1.Spans)
	}
	// t2's only span has a parent absent from the set, so it is still
	// picked as the root (the server-side view of a client-rooted trace).
	if trees[0].Root == nil || trees[0].Root.Span != "x" {
		t.Errorf("t2 root = %+v", trees[0].Root)
	}
}

func TestPhases(t *testing.T) {
	trees := Assemble([]*Record{
		rec("t1", "a", "", "step", 0, 10),
		rec("t1", "b", "a", "scheme.wifi", 0, 7),
		rec("t2", "c", "", "step", 50, 30),
		rec("t2", "d", "c", "scheme.wifi", 50, 4),
	})
	ph := Phases(trees)
	if len(ph) != 2 {
		t.Fatalf("got %d phases, want 2", len(ph))
	}
	if ph[0].Name != "step" || ph[0].Count != 2 || ph[0].TotalNS != 40 || ph[0].MaxNS != 30 {
		t.Errorf("step phase = %+v", ph[0])
	}
	if ph[1].Name != "scheme.wifi" || ph[1].TotalNS != 11 || ph[1].MaxNS != 7 {
		t.Errorf("scheme phase = %+v", ph[1])
	}
}

func TestCriticalPathUnionsOverlaps(t *testing.T) {
	root := rec("t", "r", "", "frame", 0, 100)
	trees := Assemble([]*Record{
		root,
		rec("t", "c1", "r", "read", 0, 30),
		rec("t", "c2", "r", "step", 20, 40),   // overlaps c1 by 10
		rec("t", "c3", "r", "write", 90, 20),  // runs past the parent; clamped
		rec("t", "g1", "c2", "scheme", 25, 5), // grandchild: not counted
	})
	cov := CriticalPath(trees[0], root)
	// Union of [0,30) ∪ [20,60) ∪ [90,100) = 60 + 10 = 70.
	if cov.ChildNS != 70 {
		t.Errorf("ChildNS = %d, want 70", cov.ChildNS)
	}
	if cov.GapNS != 30 {
		t.Errorf("GapNS = %d, want 30", cov.GapNS)
	}
	if cov.Fraction != 0.7 {
		t.Errorf("Fraction = %v, want 0.7", cov.Fraction)
	}
	if cov.ChildCount != 3 {
		t.Errorf("ChildCount = %d, want 3", cov.ChildCount)
	}
}

func TestCriticalPathZeroLengthSpan(t *testing.T) {
	root := rec("t", "r", "", "marker", 5, 0)
	trees := Assemble([]*Record{root})
	if cov := CriticalPath(trees[0], root); cov.Fraction != 1 {
		t.Errorf("zero-length Fraction = %v, want 1", cov.Fraction)
	}
}

func TestEpochSpansSynthesizesTree(t *testing.T) {
	tr := New(Config{Seed: 7})
	e := NewEpochSpans(tr, "sess-1")
	parent := SpanContext{Trace: tr.NewTraceID(), Span: tr.NewSpanID()}
	e.SetParent(parent)

	start := time.Now().Add(-time.Millisecond)
	e.ObserveEpoch(&telemetry.EpochTrace{
		Epoch:      3,
		Env:        "indoor",
		OK:         true,
		Best:       "wifi",
		Tau:        0.5,
		StartMono:  start,
		ClassifyNS: 100,
		CombineNS:  200,
		StepNS:     1000,
		Schemes: []telemetry.SchemeTrace{
			{Scheme: "wifi", Available: true, StartNS: 100, EstimateNS: 300, PredictNS: 50,
				PredErr: 1.5, Conf: 0.9, Weight: 0.6},
			{Scheme: "pdr", Available: false, StartNS: 450, EstimateNS: 10, PredictNS: 5, Panicked: true},
		},
	})

	recs := tr.Snapshot()
	byName := map[string]*Record{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	step := byName["step"]
	if step == nil {
		t.Fatalf("no step span in %d records", len(recs))
	}
	if step.Trace != parent.Trace.String() || step.Parent != parent.Span.String() {
		t.Errorf("step not parented to frame: %+v", step)
	}
	if step.Session != "sess-1" || step.DurNS != 1000 {
		t.Errorf("step = %+v", step)
	}
	wantBase := tr.At(start)
	if step.StartNS != wantBase {
		t.Errorf("step start = %d, want %d (anchored at StartMono)", step.StartNS, wantBase)
	}
	attrs := func(r *Record) map[string]interface{} {
		m := map[string]interface{}{}
		for _, a := range r.Attrs {
			m[a.K] = a.V
		}
		return m
	}
	cl := byName["classify"]
	if cl == nil || cl.StartNS != wantBase || cl.DurNS != 100 || cl.Parent != step.Span {
		t.Errorf("classify = %+v", cl)
	}
	wifi := byName["scheme.wifi"]
	if wifi == nil || wifi.StartNS != wantBase+100 || wifi.DurNS != 350 {
		t.Errorf("scheme.wifi = %+v", wifi)
	}
	wa := attrs(wifi)
	if wa["available"] != true || wa["weight"] != 0.6 {
		t.Errorf("wifi attrs = %+v", wa)
	}
	pdr := byName["scheme.pdr"]
	if pdr == nil {
		t.Fatal("no scheme.pdr span")
	}
	pa := attrs(pdr)
	if pa["available"] != false || pa["panicked"] != true {
		t.Errorf("pdr attrs = %+v", pa)
	}
	if _, hasWeight := pa["weight"]; hasWeight {
		t.Error("unavailable scheme must not carry weight attr")
	}
	comb := byName["combine"]
	if comb == nil || comb.StartNS != wantBase+800 || comb.DurNS != 200 {
		t.Errorf("combine = %+v", comb)
	}
	if byName["fallback"] != nil {
		t.Error("ok epoch must not emit fallback span")
	}
	// The tracer's own synthesis time is a sibling of step under the
	// frame, starting where the step ends.
	obs := byName["trace.observe"]
	if obs == nil || obs.Parent != parent.Span.String() || obs.StartNS != wantBase+1000 || obs.DurNS < 0 {
		t.Errorf("trace.observe = %+v", obs)
	}

	// All of it assembles into one complete tree when the frame root is
	// present too.
	frame := &Record{Trace: parent.Trace.String(), Span: parent.Span.String(),
		Name: "server.frame", StartNS: wantBase - 10, DurNS: 1100}
	trees := Assemble(append(recs, frame))
	if len(trees) != 1 || !trees[0].Complete() || trees[0].Root.Name != "server.frame" {
		t.Fatalf("trees = %+v", trees)
	}
	// classify [0,100) + wifi [100,450) + pdr [450,465) + combine
	// [800,1000) = 665 of the step's 1000ns.
	cov := CriticalPath(trees[0], byName["step"])
	if cov.ChildNS != 665 || cov.Fraction != 0.665 {
		t.Errorf("step child coverage = %d (%v), want 665 (0.665)", cov.ChildNS, cov.Fraction)
	}
}

func TestEpochSpansFallbackAndNilSafety(t *testing.T) {
	var e *EpochSpans
	e.SetParent(SpanContext{}) // must not panic

	tr := New(Config{Seed: 7})
	eb := NewEpochSpans(tr, "s")
	eb.ObserveEpoch(&telemetry.EpochTrace{StepNS: 10, Fallback: true})
	found := false
	for _, r := range tr.Snapshot() {
		if r.Name == "fallback" {
			found = true
		}
	}
	if !found {
		t.Error("degraded epoch must emit fallback span")
	}

	// A bridge with a nil tracer is a no-op observer.
	nb := NewEpochSpans(nil, "s")
	nb.ObserveEpoch(&telemetry.EpochTrace{StepNS: 10})
}

func TestHandlerFilters(t *testing.T) {
	tr := New(Config{Seed: 11})
	mk := func(name, session string, dur int64) SpanContext {
		s := tr.Start(name, SpanContext{})
		s.SetSession(session)
		ctx := s.Context()
		s.EndNS(tr.Now() + dur)
		return ctx
	}
	aCtx := mk("server.frame", "alpha", int64(50*time.Millisecond))
	mk("server.frame", "beta", int64(time.Millisecond))
	// An incomplete trace: child whose root was never captured... except
	// Assemble treats a parentless-set span as root, so instead emit a
	// span pair and drop the root by using a parent that IS in the set
	// minus itself — the simplest incomplete shape is unreachable here;
	// complete=1 filtering is still exercised against complete trees.

	h := Handler(tr)
	get := func(url string) (int, tracesResponse) {
		req := httptest.NewRequest("GET", url, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		var resp tracesResponse
		if w.Code == 200 {
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("bad JSON from %s: %v", url, err)
			}
		}
		return w.Code, resp
	}

	code, resp := get("/debug/traces")
	if code != 200 || len(resp.Traces) != 2 {
		t.Fatalf("unfiltered: code=%d traces=%d", code, len(resp.Traces))
	}
	if resp.SpansTotal != 2 {
		t.Errorf("SpansTotal = %d", resp.SpansTotal)
	}
	if len(resp.Exemplars) != 2 {
		t.Errorf("exemplars = %d, want 2 roots", len(resp.Exemplars))
	}

	code, resp = get("/debug/traces?session=alpha")
	if code != 200 || len(resp.Traces) != 1 || resp.Traces[0].Session != "alpha" {
		t.Fatalf("session filter: code=%d resp=%+v", code, resp.Traces)
	}

	code, resp = get("/debug/traces?trace=" + aCtx.Trace.String())
	if code != 200 || len(resp.Traces) != 1 || resp.Traces[0].Trace != aCtx.Trace.String() {
		t.Fatalf("trace filter: code=%d traces=%d", code, len(resp.Traces))
	}

	code, resp = get("/debug/traces?min_dur=10ms")
	if code != 200 || len(resp.Traces) != 1 || resp.Traces[0].Session != "alpha" {
		t.Fatalf("min_dur filter: code=%d traces=%d", code, len(resp.Traces))
	}

	code, resp = get("/debug/traces?limit=1")
	if code != 200 || len(resp.Traces) != 1 {
		t.Fatalf("limit: code=%d traces=%d", code, len(resp.Traces))
	}

	code, resp = get("/debug/traces?complete=1")
	if code != 200 || len(resp.Traces) != 2 {
		t.Fatalf("complete filter: code=%d traces=%d", code, len(resp.Traces))
	}

	if code, _ = get("/debug/traces?limit=zero"); code != 400 {
		t.Errorf("bad limit: code=%d, want 400", code)
	}
	if code, _ = get("/debug/traces?min_dur=fast"); code != 400 {
		t.Errorf("bad min_dur: code=%d, want 400", code)
	}

	var off *Tracer
	req := httptest.NewRequest("GET", "/debug/traces", nil)
	w := httptest.NewRecorder()
	Handler(off).ServeHTTP(w, req)
	if w.Code != 404 {
		t.Errorf("disabled tracer: code=%d, want 404", w.Code)
	}
}
