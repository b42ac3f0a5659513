// Package trace is UniLoc's zero-dependency span tracer: causal,
// per-request visibility across the serving pipeline. Where the
// metrics registry (internal/telemetry) answers "how is the fleet
// doing in aggregate", a trace answers "why was *this* client's epoch
// slow" — one tree of timed spans per request, from the phone's upload
// through the server's frame and step down to each localization
// scheme.
//
// Design constraints, in order:
//
//  1. Tracing off costs nothing: a nil *Tracer is a valid no-op
//     tracer, every method on it short-circuits, and the serving path
//     takes no timestamps and allocates nothing extra (guarded by
//     AllocsPerRun tests, like the telemetry observer).
//  2. Recording a span never blocks the serving path: completed spans
//     land in a lock-free ring buffer (atomic slot publication), the
//     optional exporter is invoked synchronously but is expected to be
//     cheap (the JSONL exporter is one buffered encode under a mutex).
//  3. Identifiers are W3C-traceparent compatible: 16-byte trace IDs
//     and 8-byte span IDs, rendered lowercase-hex, so UniLoc traces
//     can be correlated with any external tracing system later.
//  4. No dependencies beyond the standard library.
//
// Timestamps are monotonic nanoseconds since the tracer's creation
// (Tracer.EpochWall anchors them to wall time), so span math never
// suffers wall-clock jumps.
package trace

import (
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// TraceID is a W3C-traceparent-compatible 16-byte trace identifier.
type TraceID [16]byte

// SpanID is an 8-byte span identifier.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the trace ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the span ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses 32 hex digits.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("trace: trace ID must be 32 hex digits, got %d", len(s))
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("trace: bad trace ID: %w", err)
	}
	return t, nil
}

// ParseSpanID parses 16 hex digits.
func ParseSpanID(s string) (SpanID, error) {
	var id SpanID
	if len(s) != 16 {
		return id, fmt.Errorf("trace: span ID must be 16 hex digits, got %d", len(s))
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, fmt.Errorf("trace: bad span ID: %w", err)
	}
	return id, nil
}

// SpanContext identifies a span within a trace — the propagation unit
// carried across the wire (protocol v5 packs it into 24 bytes next to
// the epoch header).
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// ContextBytes is the wire size of an encoded SpanContext.
const ContextBytes = 24

// AppendContext appends the 24-byte wire form (trace ID, span ID).
func AppendContext(dst []byte, c SpanContext) []byte {
	dst = append(dst, c.Trace[:]...)
	return append(dst, c.Span[:]...)
}

// DecodeContext unpacks a 24-byte wire span context.
func DecodeContext(b []byte) (SpanContext, error) {
	var c SpanContext
	if len(b) != ContextBytes {
		return c, fmt.Errorf("trace: span context must be %d bytes, got %d", ContextBytes, len(b))
	}
	copy(c.Trace[:], b[:16])
	copy(c.Span[:], b[16:])
	return c, nil
}

// Attr is one span attribute. Values are strings, bools, or numbers
// (anything json.Marshal handles); the analyzer reads numbers back as
// float64.
type Attr struct {
	K string      `json:"k"`
	V interface{} `json:"v"`
}

// Record is one completed span — the unit stored in the ring buffer
// and exported as JSONL. IDs travel as lowercase hex so records are
// directly greppable and W3C-correlatable.
type Record struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Session string `json:"session,omitempty"`
	StartNS int64  `json:"start_ns"` // monotonic ns since tracer start
	DurNS   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// End returns the span's monotonic end timestamp.
func (r *Record) End() int64 { return r.StartNS + r.DurNS }

// Exporter receives every completed span. Implementations must be
// safe for concurrent use (spans complete on serving goroutines, scheme
// workers, and the client's goroutine alike) and must never block for
// long — they run synchronously on the recording path.
type Exporter interface {
	ExportSpan(*Record)
}

// Config configures a Tracer. The zero value picks sane defaults.
type Config struct {
	// RingSize is the capacity of the in-memory completed-span ring
	// buffer behind /debug/traces. Rounded up to a power of two;
	// default 4096.
	RingSize int

	// ExemplarK is how many slowest-trace exemplars to retain per
	// window (default 8); ExemplarWindow is the rotation period
	// (default 1 minute).
	ExemplarK      int
	ExemplarWindow time.Duration

	// Exporter, when set, receives every completed span (e.g. the
	// JSONL span exporter).
	Exporter Exporter

	// Seed fixes the ID-generation stream for deterministic tests.
	// 0 derives a seed from the clock.
	Seed uint64
}

// Tracer creates spans and fans completed spans out to the ring
// buffer, the exemplar collector, and the optional exporter. A nil
// Tracer is a valid disabled tracer: every method is a no-op and
// Start returns an inert Span.
type Tracer struct {
	t0      time.Time
	wall0   int64 // wall unix-nanos at t0
	idState atomic.Uint64
	ring    *ring
	ex      *Exemplars
	exp     Exporter
	spans   atomic.Int64 // completed spans, ever
	dropped atomic.Int64 // spans overwritten in the ring before a read
}

// New builds a Tracer from the config.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 4096
	}
	if cfg.ExemplarK <= 0 {
		cfg.ExemplarK = 8
	}
	if cfg.ExemplarWindow <= 0 {
		cfg.ExemplarWindow = time.Minute
	}
	now := time.Now()
	t := &Tracer{
		t0:    now,
		wall0: now.UnixNano(),
		ring:  newRing(cfg.RingSize),
		ex:    NewExemplars(cfg.ExemplarK, cfg.ExemplarWindow),
		exp:   cfg.Exporter,
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = uint64(now.UnixNano()) | 1
	}
	t.idState.Store(seed)
	return t
}

// Enabled reports whether the tracer records spans (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// EpochWall returns the wall-clock unix nanoseconds corresponding to
// monotonic timestamp 0 — the anchor for converting Record.StartNS to
// wall time.
func (t *Tracer) EpochWall() int64 {
	if t == nil {
		return 0
	}
	return t.wall0
}

// Now returns the tracer's monotonic clock: nanoseconds since the
// tracer was created.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// At converts an absolute time to the tracer's monotonic clock.
func (t *Tracer) At(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.t0))
}

// splitmix64 advances the ID stream — lock-free (one atomic add) and
// well-distributed, which is all span IDs need. Crypto-strength IDs
// are explicitly a non-goal: traces are an operator diagnostic, not a
// security boundary.
func (t *Tracer) next64() uint64 {
	z := t.idState.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewTraceID mints a fresh non-zero trace ID.
func (t *Tracer) NewTraceID() TraceID {
	var id TraceID
	if t == nil {
		return id
	}
	for id.IsZero() {
		a, b := t.next64(), t.next64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

// NewSpanID mints a fresh non-zero span ID.
func (t *Tracer) NewSpanID() SpanID {
	var id SpanID
	if t == nil {
		return id
	}
	for id.IsZero() {
		a := t.next64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
		}
	}
	return id
}

// Span is one in-flight span. The zero Span (and any Span from a nil
// Tracer) is inert: attributes and End are no-ops. Spans are values —
// starting one allocates nothing until attributes are attached.
type Span struct {
	t       *Tracer
	ctx     SpanContext
	parent  SpanID
	hasPar  bool
	name    string
	session string
	startNS int64
	root    bool // offer to the exemplar collector on End
	attrs   []Attr
}

// Start opens a span now. An invalid parent starts a new root trace
// (and marks the span as an exemplar candidate); a valid parent
// continues the parent's trace.
func (t *Tracer) Start(name string, parent SpanContext) Span {
	if t == nil {
		return Span{}
	}
	return t.StartNS(name, parent, t.Now())
}

// StartAt opens a span with an explicit start time — for callers that
// learn the trace context only after the work began (e.g. the server
// reads a whole epoch before it knows the client's trace ID).
func (t *Tracer) StartAt(name string, parent SpanContext, at time.Time) Span {
	if t == nil {
		return Span{}
	}
	return t.StartNS(name, parent, t.At(at))
}

// StartNS opens a span at an explicit monotonic timestamp.
func (t *Tracer) StartNS(name string, parent SpanContext, startNS int64) Span {
	if t == nil {
		return Span{}
	}
	s := Span{t: t, name: name, startNS: startNS}
	if parent.Valid() {
		s.ctx = SpanContext{Trace: parent.Trace, Span: t.NewSpanID()}
		s.parent = parent.Span
		s.hasPar = true
	} else {
		s.ctx = SpanContext{Trace: t.NewTraceID(), Span: t.NewSpanID()}
		s.root = true
	}
	return s
}

// Context returns the span's propagation context (zero for inert
// spans).
func (s *Span) Context() SpanContext {
	if s.t == nil {
		return SpanContext{}
	}
	return s.ctx
}

// Recording reports whether the span will produce a Record on End.
func (s *Span) Recording() bool { return s.t != nil }

// SetSession labels the span (and its exemplar, if any) with a
// session/client identifier.
func (s *Span) SetSession(id string) {
	if s.t != nil {
		s.session = id
	}
}

// SetRoot overrides exemplar-candidate status: the server marks its
// frame spans complete-trace roots even when they continue a client's
// trace.
func (s *Span) SetRoot(root bool) {
	if s.t != nil {
		s.root = root
	}
}

// Attr attaches one attribute. No-op on inert spans.
func (s *Span) Attr(k string, v interface{}) {
	if s.t != nil {
		s.attrs = append(s.attrs, Attr{K: k, V: v})
	}
}

// End completes the span now and publishes its Record.
func (s *Span) End() {
	if s.t == nil {
		return
	}
	s.EndNS(s.t.Now())
}

// EndNS completes the span at an explicit monotonic timestamp.
func (s *Span) EndNS(endNS int64) {
	if s.t == nil {
		return
	}
	dur := endNS - s.startNS
	if dur < 0 {
		dur = 0
	}
	rec := &Record{
		Trace:   s.ctx.Trace.String(),
		Span:    s.ctx.Span.String(),
		Name:    s.name,
		Session: s.session,
		StartNS: s.startNS,
		DurNS:   dur,
		Attrs:   s.attrs,
	}
	if s.hasPar {
		rec.Parent = s.parent.String()
	}
	s.t.Emit(rec)
	if s.root {
		s.t.ex.Offer(Exemplar{
			Trace:   rec.Trace,
			Name:    s.name,
			Session: s.session,
			EndNS:   endNS,
			DurNS:   dur,
		})
	}
	s.t = nil // double-End is a no-op
}

// Emit publishes a completed span record directly — the low-level
// path used by synthesized spans (the epoch-trace bridge reconstructs
// per-scheme child spans from measured durations after the fact).
// The record must not be mutated after Emit.
func (t *Tracer) Emit(rec *Record) {
	if t == nil {
		return
	}
	t.spans.Add(1)
	if t.ring.put(rec) {
		t.dropped.Add(1)
	}
	if t.exp != nil {
		t.exp.ExportSpan(rec)
	}
}

// OfferExemplar offers a completed trace to the tail-latency exemplar
// collector directly (for callers composing spans via Emit).
func (t *Tracer) OfferExemplar(e Exemplar) {
	if t == nil {
		return
	}
	t.ex.Offer(e)
}

// Spans returns how many spans have completed since the tracer
// started; Dropped returns how many were overwritten in the ring
// before being read (the ring keeps the newest spans).
func (t *Tracer) Spans() int64 {
	if t == nil {
		return 0
	}
	return t.spans.Load()
}

// Dropped returns how many completed spans have been overwritten in
// the ring buffer (they were still exported, if an exporter is set).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Snapshot returns the ring buffer's current contents, oldest first.
func (t *Tracer) Snapshot() []*Record {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// Exemplars returns the tracer's tail-latency exemplar collector.
func (t *Tracer) Exemplars() *Exemplars {
	if t == nil {
		return nil
	}
	return t.ex
}
