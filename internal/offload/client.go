package offload

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/geo"
	"repro/internal/rf"
	"repro/internal/sensing"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// ErrRejected reports that the server refused the session handshake;
// the wrapped message carries the server's reason.
var ErrRejected = errors.New("offload: session rejected")

// Backoff tunes the client's reconnect schedule: capped exponential
// backoff with deterministic jitter. The zero value picks sane
// defaults (10ms..2s, 5 attempts).
type Backoff struct {
	Min      time.Duration // first retry delay (default 10ms)
	Max      time.Duration // delay cap (default 2s)
	Attempts int           // reconnect attempts per operation (default 5)
	Seed     int64         // jitter stream seed — fixed seed, fixed schedule
}

func (b Backoff) min() time.Duration {
	if b.Min <= 0 {
		return 10 * time.Millisecond
	}
	return b.Min
}

func (b Backoff) max() time.Duration {
	if b.Max <= 0 {
		return 2 * time.Second
	}
	return b.Max
}

func (b Backoff) attempts() int {
	if b.Attempts <= 0 {
		return 5
	}
	return b.Attempts
}

// clientMetrics are the phone-side robustness instruments. All nil —
// and therefore free — without a registry.
type clientMetrics struct {
	reconnects       *telemetry.Counter
	deadlineTimeouts *telemetry.Counter
}

// Client is the phone side of the offloading protocol: it opens a
// session with a hello frame, uploads one epoch's pre-processed sensor
// data at a time, and receives the fused position. With a dialer
// attached (SetReconnect) it survives server restarts: a failed epoch
// triggers capped-exponential-backoff reconnects, a fresh handshake
// that preserves the client ID, and a retry of the epoch.
type Client struct {
	conn net.Conn

	clientID  string
	sessionID uint32
	helloed   bool
	proto     byte // negotiated protocol version (maxProto before Hello)
	maxProto  byte // highest version this client offers (ProtocolVersion by default)

	timeout time.Duration            // per-frame read/write deadline (0 = none)
	dial    func() (net.Conn, error) // nil = no reconnect
	backoff Backoff
	rnd     *rand.Rand // jitter stream; non-nil iff dial is set

	start    geo.Point // handshake start, replayed on reconnect
	hasStart bool
	lastPos  geo.Point // last served position: the reconnect handshake resumes here
	hasPos   bool

	seq uint32 // per-session epoch sequence number (v4); 0 = none sent

	bytesUp    int
	bytesDown  int
	epochs     int
	reconnects int
	resumes    int

	met clientMetrics

	tracer  *trace.Tracer     // nil = tracing off
	curSpan trace.SpanContext // in-flight epoch span, embedded in v5 context frames
}

// NewClient wraps an established connection to the server. The
// optional clientID labels this phone in the server's per-session
// stats.
func NewClient(conn net.Conn, clientID ...string) *Client {
	c := &Client{conn: conn, proto: ProtocolVersion, maxProto: ProtocolVersion}
	if len(clientID) > 0 {
		c.clientID = clientID[0]
	}
	return c
}

// SetMaxProtocol caps the version this client offers in its hello, for
// tests and staged rollouts: a client capped at v3 behaves exactly
// like a real v3 build — no sequence numbers resumed, no trace bytes,
// surveys allowed. Call before Hello; versions below the v2 handshake
// floor or above ProtocolVersion are clamped.
func (c *Client) SetMaxProtocol(v byte) {
	if v < ProtocolV2 {
		v = ProtocolV2
	}
	if v > ProtocolVersion {
		v = ProtocolVersion
	}
	c.maxProto = v
	if !c.helloed {
		c.proto = v
	}
}

// SetTimeout bounds every protocol read and write: Localize and Hello
// fail with a timeout error instead of blocking forever on a stalled
// or half-dead server. 0 disables deadlines (the old behavior).
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// SetReconnect arms automatic reconnection: when an epoch fails on a
// transport or protocol error, the client redials via dial with capped
// exponential backoff plus jitter, re-handshakes under the same client
// ID (resuming at the last served position), and retries the epoch.
// Rejections (ErrRejected) are never retried — the server said no.
func (c *Client) SetReconnect(dial func() (net.Conn, error), bo Backoff) {
	c.dial = dial
	c.backoff = bo
	c.rnd = rand.New(rand.NewSource(bo.Seed))
}

// SetMetrics registers the client's robustness counters
// (offload_reconnects_total, deadline_timeouts_total) on reg. Pass the
// registry before the first operation.
func (c *Client) SetMetrics(reg *telemetry.Registry) {
	c.met = clientMetrics{
		reconnects:       reg.Counter("offload_reconnects_total", "successful client reconnects after a failed epoch"),
		deadlineTimeouts: reg.Counter("deadline_timeouts_total", "protocol reads/writes that hit their deadline"),
	}
}

// SetTracer attaches a span tracer: every Localize call becomes one
// "client.epoch" root span whose context travels to the server in the
// v5 context frame, so the server's frame, step, and per-scheme spans
// join the same trace tree. Nil (the default) disables tracing at zero
// cost. When the handshake negotiates a pre-v5 session, spans are
// still recorded locally but no trace bytes are sent.
func (c *Client) SetTracer(t *trace.Tracer) { c.tracer = t }

// Proto returns the negotiated protocol version (ProtocolVersion
// before Hello completes).
func (c *Client) Proto() byte { return c.proto }

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// BytesUp returns the total bytes uploaded (including framing).
func (c *Client) BytesUp() int { return c.bytesUp }

// BytesDown returns the total bytes downloaded (including framing).
func (c *Client) BytesDown() int { return c.bytesDown }

// Epochs returns the number of epochs localized.
func (c *Client) Epochs() int { return c.epochs }

// Reconnects returns how many times the client has successfully
// re-established and re-handshaken its session.
func (c *Client) Reconnects() int { return c.reconnects }

// Resumes returns how many re-handshakes the server answered with
// Welcome.Resumed — reconnects that re-attached the server-side
// session instead of opening a fresh one (v4).
func (c *Client) Resumes() int { return c.resumes }

// SessionID returns the server-assigned session ID (0 before Hello).
func (c *Client) SessionID() uint32 { return c.sessionID }

// armRead applies the read deadline, if one is configured.
func (c *Client) armRead() {
	if c.timeout > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.timeout))
	}
}

// armWrite applies the write deadline, if one is configured.
func (c *Client) armWrite() {
	if c.timeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
}

// noteTimeout counts deadline hits.
func (c *Client) noteTimeout(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.met.deadlineTimeouts.Inc()
	}
}

// Hello performs the session handshake: it announces the protocol
// version and the walk's starting position, and waits for the server's
// welcome. It returns ErrRejected (with the server's reason) when the
// server refuses the session, e.g. at its session limit.
func (c *Client) Hello(start geo.Point) error {
	if c.helloed {
		return fmt.Errorf("%w: hello already sent", ErrProtocol)
	}
	c.start, c.hasStart = start, true
	h := &Hello{Version: c.maxProto, StartX: start.X, StartY: start.Y, ClientID: c.clientID}
	c.armWrite()
	n, err := WriteFrame(c.conn, MsgHello, EncodeHello(h))
	c.bytesUp += n
	if err != nil {
		c.noteTimeout(err)
		return err
	}
	c.armRead()
	t, payload, err := ReadFrame(c.conn)
	if err != nil {
		c.noteTimeout(err)
		return err
	}
	c.bytesDown += 3 + len(payload)
	if t != MsgWelcome {
		return fmt.Errorf("%w: expected welcome, got type %d", ErrProtocol, t)
	}
	w, err := DecodeWelcome(payload)
	if err != nil {
		return err
	}
	if !w.OK {
		return fmt.Errorf("%w: %s", ErrRejected, w.Reason)
	}
	// The welcome carries the server's negotiated version; min with our
	// own guards against a server echoing a version we never offered.
	c.proto = Negotiate(c.maxProto, w.Version)
	c.sessionID = w.SessionID
	c.helloed = true
	if w.Resumed {
		c.resumes++
	}
	return nil
}

// Localize uploads one snapshot and returns the server's result. The
// inertial step travels as the paper's 4-byte intermediate result; the
// GNSS fix is uploaded only when it meets the reliability criterion
// (§IV-C). If Hello has not been called, a handshake starting at the
// map origin is performed first. With SetReconnect armed, a failed
// epoch is retried across reconnects before the error is surfaced.
func (c *Client) Localize(snap *sensing.Snapshot) (*Result, error) {
	if !c.helloed {
		if err := c.Hello(c.resumePoint()); err != nil {
			return nil, err
		}
	}
	// One sequence number per logical epoch, shared by every retry of
	// it: when a reconnect re-attaches the server session, a re-sent
	// epoch whose result was already computed is answered from the
	// server's per-seq cache instead of being re-stepped.
	c.seq++
	// One root span per logical epoch too: retries of the same epoch
	// carry the same span context, so a replayed result lands in the
	// same trace as the upload that produced it.
	span := c.tracer.Start("client.epoch", trace.SpanContext{})
	if span.Recording() {
		span.SetSession(c.clientID)
		span.Attr("epoch", snap.Epoch)
		span.Attr("seq", c.seq)
		c.curSpan = span.Context()
	}
	res, err := c.localizeOnce(snap)
	if err != nil && c.dial != nil && !errors.Is(err, ErrRejected) {
		res, err = c.retryEpoch(snap, err)
	}
	if span.Recording() {
		span.Attr("ok", err == nil)
		span.End()
		c.curSpan = trace.SpanContext{}
	}
	return res, err
}

// retryEpoch drives the reconnect loop for one failed epoch: capped
// exponential backoff with jitter, redial, re-handshake under the same
// client ID at the last served position, retry. The original failure
// is wrapped into the terminal error when every attempt is exhausted.
func (c *Client) retryEpoch(snap *sensing.Snapshot, firstErr error) (*Result, error) {
	lastErr := firstErr
	delay := c.backoff.min()
	for attempt := 0; attempt < c.backoff.attempts(); attempt++ {
		// Full jitter on top of the exponential floor: sleep in
		// [delay/2, delay). Deterministic under the configured seed.
		sleep := delay/2 + time.Duration(c.rnd.Int63n(int64(delay/2)+1))
		time.Sleep(sleep)
		if delay *= 2; delay > c.backoff.max() {
			delay = c.backoff.max()
		}

		conn, err := c.dial()
		if err != nil {
			lastErr = err
			continue
		}
		_ = c.conn.Close() // drop the dead conn; ignore its error
		c.conn = conn
		c.helloed = false
		c.sessionID = 0
		if err := c.Hello(c.resumePoint()); err != nil {
			if errors.Is(err, ErrRejected) {
				return nil, err
			}
			lastErr = err
			continue
		}
		c.reconnects++
		c.met.reconnects.Inc()
		res, err := c.localizeOnce(snap)
		if err == nil {
			return res, nil
		}
		if errors.Is(err, ErrRejected) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("offload: epoch failed after %d reconnect attempts: %w", c.backoff.attempts(), lastErr)
}

// resumePoint is where a (re)handshake starts the server-side
// framework when the server opens a fresh session: the last served
// position when one exists (the walk is mid-flight), else the original
// start, else the map origin. A v4 server that still holds the
// detached session ignores this and resumes the framework exactly
// where it left off — restarting at lastPos (plus re-stepping the
// in-flight epoch) is the double-advance bug the sequence numbers
// close.
func (c *Client) resumePoint() geo.Point {
	if c.hasPos {
		return c.lastPos
	}
	if c.hasStart {
		return c.start
	}
	return geo.Pt(0, 0)
}

// localizeOnce runs one epoch exchange over the current connection.
func (c *Client) localizeOnce(snap *sensing.Snapshot) (*Result, error) {
	write := func(t MsgType, payload []byte) error {
		c.armWrite()
		n, err := WriteFrame(c.conn, t, payload)
		c.bytesUp += n
		if err != nil {
			c.noteTimeout(err)
		}
		return err
	}
	if snap.Step != nil {
		if err := write(MsgStepUpdate, EncodeStep(snap.Step)); err != nil {
			return nil, err
		}
	}
	if len(snap.WiFi) > 0 {
		if err := write(MsgWiFiVector, EncodeVector(snap.WiFi)); err != nil {
			return nil, err
		}
	}
	if len(snap.Cell) > 0 {
		if err := write(MsgCellVector, EncodeVector(snap.Cell)); err != nil {
			return nil, err
		}
	}
	if snap.GNSS.Reliable() {
		if err := write(MsgGNSSFix, EncodeFix(snap.GNSS)); err != nil {
			return nil, err
		}
	}
	if snap.Landmark != nil {
		if err := write(MsgLandmark, EncodeLandmark(snap.Landmark)); err != nil {
			return nil, err
		}
	}
	ctxPayload := EncodeContextSeq(snap, c.seq)
	if c.curSpan.Valid() && Features(c.proto).Trace {
		// v5 negotiated: ship the epoch span's context so server-side
		// spans join this trace. Pre-v5 sessions get the plain header —
		// the feature gate, not the tracer, decides the wire bytes.
		ctxPayload = EncodeContextTrace(snap, c.seq, c.curSpan)
	}
	if err := write(MsgContext, ctxPayload); err != nil {
		return nil, err
	}
	if err := write(MsgEpochEnd, nil); err != nil {
		return nil, err
	}

	c.armRead()
	t, payload, err := ReadFrame(c.conn)
	if err != nil {
		c.noteTimeout(err)
		return nil, err
	}
	c.bytesDown += 3 + len(payload)
	if t != MsgResult {
		return nil, fmt.Errorf("%w: expected result, got type %d", ErrProtocol, t)
	}
	res, err := DecodeResult(payload)
	if err != nil {
		return nil, err
	}
	c.epochs++
	c.lastPos, c.hasPos = res.Pos(), true
	return res, nil
}

// SubmitSurvey contributes one crowdsourced survey point (a full RSSI
// scan at a known position) to the server's shared radio map
// (protocol v3). The frame is fire-and-forget: the server folds the
// point into its map store at the next compaction and sends no
// acknowledgment, so a submission costs one upload and no round trip.
// mapID is MapWiFi or MapCellular.
func (c *Client) SubmitSurvey(mapID byte, pos geo.Point, vec rf.Vector) error {
	if !c.helloed {
		if err := c.Hello(c.resumePoint()); err != nil {
			return err
		}
	}
	if !Features(c.proto).Surveys {
		// A v2 session has no MsgSurvey; sending one anyway would kill
		// the epoch stream server-side with a protocol error.
		return fmt.Errorf("%w: surveys need protocol v%d, session is v%d", ErrProtocol, ProtocolV3, c.proto)
	}
	s := &Survey{Map: mapID, X: pos.X, Y: pos.Y, Vec: vec}
	c.armWrite()
	n, err := WriteFrame(c.conn, MsgSurvey, EncodeSurvey(s))
	c.bytesUp += n
	if err != nil {
		c.noteTimeout(err)
	}
	return err
}

// Pos converts a result into a local-map point.
func (r *Result) Pos() geo.Point { return geo.Pt(r.X, r.Y) }

// BestPos converts a result's UniLoc1 output into a local-map point.
func (r *Result) BestPos() geo.Point { return geo.Pt(r.BestX, r.BestY) }
