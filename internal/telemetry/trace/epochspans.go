package trace

import (
	"repro/internal/telemetry"
)

// EpochSpans bridges the framework's existing telemetry.Observer hook
// into span records: one ObserveEpoch call becomes a "step" span with
// "classify", one "scheme.<name>" child per scheme, "combine", and
// (on degraded epochs) a "fallback" marker, plus — under a parent — a
// "trace.observe" sibling timing the synthesis itself. The framework
// itself stays tracer-agnostic — with no observer attached, Step takes no
// timestamps and allocates nothing, exactly as before; the spans are
// synthesized here from the durations the trace already carries.
//
// The serving goroutine parents each epoch by calling SetParent with
// the frame span's context before Step. That write happens-before the
// Step that consumes it (a framework is driven by one goroutine at a
// time), so EpochSpans needs no locking.
type EpochSpans struct {
	t       *Tracer
	session string
	parent  SpanContext // frame span; zero = each epoch is its own root
}

// NewEpochSpans builds the bridge. A nil tracer yields a bridge whose
// ObserveEpoch is a no-op — but prefer not attaching the observer at
// all, so the framework skips trace assembly entirely.
func NewEpochSpans(t *Tracer, session string) *EpochSpans {
	return &EpochSpans{t: t, session: session}
}

// SetParent sets the parent span context for subsequent epochs
// (typically once per frame, from the serving goroutine). Nil-safe, so
// tracer-off servers can call it unconditionally.
func (e *EpochSpans) SetParent(ctx SpanContext) {
	if e != nil {
		e.parent = ctx
	}
}

// ObserveEpoch implements telemetry.Observer.
func (e *EpochSpans) ObserveEpoch(tr *telemetry.EpochTrace) {
	t := e.t
	if t == nil {
		return
	}
	// Anchor the step span on the monotonic start Step recorded; fall
	// back to "it just ended" for traces without one (replayed JSONL).
	var start int64
	if !tr.StartMono.IsZero() {
		start = t.At(tr.StartMono)
	} else {
		start = t.Now() - tr.StepNS
	}
	end := start + tr.StepNS

	step := t.StartNS("step", e.parent, start)
	step.SetSession(e.session)
	step.Attr("epoch", tr.Epoch)
	step.Attr("env", tr.Env)
	step.Attr("ok", tr.OK)
	if tr.Best != "" {
		step.Attr("best", tr.Best)
	}
	stepCtx := step.Context()

	child := func(name string, childStart, dur int64, attrs []Attr) {
		rec := &Record{
			Trace:   stepCtx.Trace.String(),
			Span:    t.NewSpanID().String(),
			Parent:  stepCtx.Span.String(),
			Name:    name,
			Session: e.session,
			StartNS: childStart,
			DurNS:   dur,
			Attrs:   attrs,
		}
		t.Emit(rec)
	}

	child("classify", start, tr.ClassifyNS, nil)
	for i := range tr.Schemes {
		st := &tr.Schemes[i]
		attrs := []Attr{
			{K: "available", V: st.Available},
			{K: "estimate_ns", V: st.EstimateNS},
			{K: "predict_ns", V: st.PredictNS},
		}
		if st.Available {
			attrs = append(attrs,
				Attr{K: "pred_err", V: st.PredErr},
				Attr{K: "conf", V: st.Conf},
				Attr{K: "weight", V: st.Weight})
		}
		if st.Panicked {
			attrs = append(attrs, Attr{K: "panicked", V: true})
		}
		if st.Quarantined {
			attrs = append(attrs, Attr{K: "quarantined", V: true})
		}
		child("scheme."+st.Scheme, start+st.StartNS, st.EstimateNS+st.PredictNS, attrs)
	}
	// Combine (τ, weighting, selection, BMA) is the last phase of the
	// step, so its span is anchored to the step's end.
	child("combine", end-tr.CombineNS, tr.CombineNS, []Attr{{K: "tau", V: tr.Tau}})
	if tr.Fallback {
		child("fallback", end, 0, nil)
	}
	step.EndNS(end)
	if e.parent.Valid() {
		// Synthesizing the spans above is tracer work the step span does
		// not cover; it becomes a "trace.observe" sibling of step, so the
		// frame's time stays accounted for and the tracer's own cost
		// shows per epoch.
		t.Emit(&Record{
			Trace:   e.parent.Trace.String(),
			Span:    t.NewSpanID().String(),
			Parent:  e.parent.Span.String(),
			Name:    "trace.observe",
			Session: e.session,
			StartNS: end,
			DurNS:   t.Now() - end,
		})
	}
}
