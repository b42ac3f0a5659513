package cluster

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/offload"
	"repro/internal/telemetry"
)

// RouterConfig configures a cluster router.
type RouterConfig struct {
	// Backends are the uniloc-server addresses sessions hash onto.
	// Required, at least one.
	Backends []string

	// VNodes is the virtual-node count per backend on the hash ring.
	// <= 0 uses DefaultVNodes.
	VNodes int

	// DialTimeout bounds each backend dial. <= 0 uses 2s.
	DialTimeout time.Duration

	// HealthEvery is the active probe period: every backend gets a TCP
	// probe this often, marking it down (its sessions re-route) or back
	// up (its keys come home). 0 disables active probing — backends are
	// then only marked down passively, on dial failure, and never
	// revive.
	HealthEvery time.Duration

	// Metrics receives the router's instruments, including the
	// per-backend membership gauge (uniloc_router_backend_up) that
	// makes /metrics show cluster state. Nil disables exposition.
	Metrics *telemetry.Registry
}

// routerMetrics are the router's instruments; all nil — and free —
// without a registry.
type routerMetrics struct {
	reg           *telemetry.Registry
	active        *telemetry.Gauge
	routed        *telemetry.Counter
	dialFailures  *telemetry.Counter
	reroutes      *telemetry.Counter
	helloErrors   *telemetry.Counter
	probes        *telemetry.Counter
	probeFailures *telemetry.Counter
	rebalanced    *telemetry.Counter
}

func newRouterMetrics(reg *telemetry.Registry) routerMetrics {
	return routerMetrics{
		reg:           reg,
		active:        reg.Gauge("uniloc_router_active_conns", "client connections currently proxied"),
		routed:        reg.Counter("uniloc_router_routed_total", "client connections routed to a backend"),
		dialFailures:  reg.Counter("uniloc_router_dial_failures_total", "backend dials that failed (backend marked down)"),
		reroutes:      reg.Counter("uniloc_router_reroutes_total", "connections that landed on a non-first-choice backend"),
		helloErrors:   reg.Counter("uniloc_router_hello_errors_total", "connections dropped before a routable hello"),
		probes:        reg.Counter("uniloc_router_probes_total", "active health probes sent"),
		probeFailures: reg.Counter("uniloc_router_probe_failures_total", "active health probes that failed"),
		rebalanced:    reg.Counter("uniloc_router_rebalanced_total", "proxied connections drained because their key moved to another backend"),
	}
}

// backendUp publishes one backend's membership state as a labeled
// gauge (1 up, 0 down).
func (m routerMetrics) backendUp(addr string, up bool) {
	v := 0.0
	if up {
		v = 1.0
	}
	m.reg.Gauge("uniloc_router_backend_up", "backend liveness on the router's hash ring (1 = routable)", "backend", addr).Set(v)
}

// Router terminates nothing: it reads exactly one frame — the hello —
// to learn the client ID, consistent-hashes it onto a backend,
// forwards the hello verbatim, and then splices bytes both ways. The
// offload protocol (trace context included) crosses it untouched, so
// router and backends upgrade independently. A dead backend is marked
// down on dial failure (and by the active prober), and the very next
// reconnect of its clients lands on a surviving node, where the
// handshake either resumes a detached session (same node) or opens a
// fresh one at the client's last served position.
type Router struct {
	ring        *Ring
	dialTimeout time.Duration
	healthEvery time.Duration
	met         routerMetrics

	mu     sync.Mutex
	active int64
	conns  map[*proxied]struct{} // live proxied connections, for rebalance drains
	probes map[string]*probeState
	rnd    *rand.Rand // probe-backoff jitter; guarded by mu
	done   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// proxied is one live client↔backend splice, tracked so a rebalance
// (AddBackend) can drain exactly the connections whose key moved.
type proxied struct {
	client  net.Conn
	backend net.Conn
	key     string
	addr    string
}

// probeState is one backend's prober schedule: consecutive failures
// and the earliest next probe time. A persistently-down backend is
// probed on jittered exponential backoff instead of every tick, so a
// large ring with a dead member doesn't spend its probe budget
// hammering it (and a thundering herd of routers doesn't re-probe in
// lockstep).
type probeState struct {
	failures int
	next     time.Time
}

// NewRouter builds a router over the configured backends.
func NewRouter(cfg RouterConfig) (*Router, error) {
	ring := NewRing(cfg.Backends, cfg.VNodes)
	if len(ring.Members()) == 0 {
		return nil, errors.New("cluster: router needs at least one backend")
	}
	dt := cfg.DialTimeout
	if dt <= 0 {
		dt = 2 * time.Second
	}
	r := &Router{
		ring:        ring,
		dialTimeout: dt,
		healthEvery: cfg.HealthEvery,
		met:         newRouterMetrics(cfg.Metrics),
		conns:       make(map[*proxied]struct{}),
		probes:      make(map[string]*probeState),
		rnd:         rand.New(rand.NewSource(time.Now().UnixNano())),
		done:        make(chan struct{}),
	}
	for _, m := range ring.Members() {
		r.met.backendUp(m.Addr, true)
	}
	if r.healthEvery > 0 {
		r.wg.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// Ring exposes the router's hash ring (membership snapshots, manual
// mark-down in tests).
func (r *Router) Ring() *Ring { return r.ring }

// Close stops the active prober. In-flight proxied connections are
// left alone — close the listener to stop new ones.
func (r *Router) Close() {
	r.once.Do(func() { close(r.done) })
	r.wg.Wait()
}

// markDown records a backend transition, keeping the membership gauge
// in sync with the ring.
func (r *Router) markDown(addr string, down bool) {
	was := r.ring.Up(addr)
	r.ring.SetDown(addr, down)
	if was == down { // state actually changed
		r.met.backendUp(addr, !down)
	}
}

// probeBackoffCap caps the prober's exponential backoff at this many
// base periods: a dead backend is still re-probed within ~16 periods,
// so a restarted node rejoins promptly, while the steady-state cost of
// a long-dead one drops by an order of magnitude.
const probeBackoffCap = 16

// probeLoop actively probes backends with TCP dials: a refused probe
// marks the backend down, a successful one marks it back up — so a
// restarted node rejoins the ring without operator action. Healthy
// backends are probed every HealthEvery; a backend that keeps failing
// backs off exponentially (doubling per consecutive failure, capped,
// with ±25% jitter) so persistent deadness is cheap to track.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.healthEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
			now := time.Now()
			for _, m := range r.ring.Members() {
				r.mu.Lock()
				ps := r.probes[m.Addr]
				if ps == nil {
					ps = &probeState{}
					r.probes[m.Addr] = ps
				}
				due := !now.Before(ps.next)
				r.mu.Unlock()
				if !due {
					continue
				}
				r.met.probes.Inc()
				conn, err := net.DialTimeout("tcp", m.Addr, r.dialTimeout)
				if err == nil {
					_ = conn.Close()
				}
				r.markDown(m.Addr, err != nil)
				r.mu.Lock()
				if err != nil {
					r.met.probeFailures.Inc()
					if ps.failures < 30 {
						ps.failures++
					}
					mult := 1 << ps.failures
					if mult > probeBackoffCap {
						mult = probeBackoffCap
					}
					delay := time.Duration(mult) * r.healthEvery
					// ±25% jitter de-correlates probe storms across routers.
					delay += time.Duration((r.rnd.Float64() - 0.5) * 0.5 * float64(delay))
					ps.next = now.Add(delay)
				} else {
					ps.failures = 0
					ps.next = now.Add(r.healthEvery)
				}
				r.mu.Unlock()
			}
		}
	}
}

// AddBackend adds a live backend to the router's ring at runtime and
// drains exactly the proxied connections whose key now hashes to it:
// their splices are severed with an RST on both sides, so the backend
// parks the session for resume and the client's reconnect — landing
// on the new backend — migrates the walk over the handoff path instead
// of restarting it. Connections whose keys did not move are untouched.
// Returns how many connections were drained; -1 if the address was
// already a member (nothing changes).
func (r *Router) AddBackend(addr string) int {
	if !r.ring.Add(addr) {
		return -1
	}
	r.met.backendUp(addr, true)
	r.mu.Lock()
	var moved []*proxied
	for p := range r.conns {
		if next, ok := r.ring.Pick(p.key); ok && next != p.addr {
			moved = append(moved, p)
		}
	}
	r.mu.Unlock()
	for _, p := range moved {
		// Drain-before-move: the abrupt close tells the old backend to
		// park (not end) the session; the client reconnects and the ring
		// now routes it to the new backend, which fetches the session
		// state over the handoff wire.
		abortConn(p.client)
		abortConn(p.backend)
		_ = p.client.Close()
		_ = p.backend.Close()
		r.met.rebalanced.Inc()
	}
	return len(moved)
}

// dialBackend walks the ring from the key's home position: the home
// backend first, then — marking each failure down — the next live
// points clockwise, so one dead node costs its clients one extra dial,
// not an outage.
func (r *Router) dialBackend(key string) (net.Conn, string, error) {
	tried := 0
	for {
		addr, ok := r.ring.Pick(key)
		if !ok {
			return nil, "", errors.New("cluster: no live backends")
		}
		conn, err := net.DialTimeout("tcp", addr, r.dialTimeout)
		if err == nil {
			if tried > 0 {
				r.met.reroutes.Inc()
			}
			return conn, addr, nil
		}
		r.met.dialFailures.Inc()
		r.markDown(addr, true)
		if tried++; tried > len(r.ring.Members()) {
			return nil, "", fmt.Errorf("cluster: all backends unreachable: %w", err)
		}
	}
}

// Serve proxies one client connection: hello in, backend out, then a
// transparent bidirectional splice until either side closes.
func (r *Router) Serve(conn net.Conn) error {
	defer func() { _ = conn.Close() }()

	t, payload, err := offload.ReadFrame(conn)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil // port scan or health probe: quiet close
		}
		r.met.helloErrors.Inc()
		return err
	}
	if t != offload.MsgHello {
		r.met.helloErrors.Inc()
		return fmt.Errorf("cluster: expected hello, got frame type %d", t)
	}
	hello, err := offload.DecodeHello(payload)
	if err != nil {
		r.met.helloErrors.Inc()
		return err
	}
	key := hello.ClientID
	if key == "" {
		// Anonymous clients still need a stable-ish shard: the remote
		// address holds for the life of this connection, which is all an
		// ID-less (hence resume-less) session can use anyway.
		key = conn.RemoteAddr().String()
	}

	backend, addr, err := r.dialBackend(key)
	if err != nil {
		return err
	}
	defer func() { _ = backend.Close() }()
	if _, err := offload.WriteFrame(backend, offload.MsgHello, payload); err != nil {
		r.markDown(addr, true)
		return fmt.Errorf("cluster: forward hello to %s: %w", addr, err)
	}
	r.met.routed.Inc()
	p := &proxied{client: conn, backend: backend, key: key, addr: addr}
	r.mu.Lock()
	r.active++
	r.conns[p] = struct{}{}
	r.met.active.Set(float64(r.active))
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.active--
		delete(r.conns, p)
		r.met.active.Set(float64(r.active))
		r.mu.Unlock()
	}()

	// Splice. Closing both conns on either direction's exit unblocks
	// the other copy; a backend death therefore surfaces to the client
	// immediately as a dead connection, and its reconnect re-enters the
	// router. Abruptness must survive the hop: a client RST arriving as
	// a read error is re-raised to the backend as an RST (not a clean
	// FIN), because uniloc-server reads the difference semantically —
	// a reset parks a session for resume, EOF ends the walk.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := io.Copy(backend, conn); err != nil {
			abortConn(backend)
		}
		_ = backend.Close()
		_ = conn.Close()
	}()
	if _, err := io.Copy(conn, backend); err != nil {
		abortConn(conn)
	}
	_ = conn.Close()
	_ = backend.Close()
	<-done
	return nil
}

// abortConn arms an RST close: the peer sees a connection reset
// instead of a clean EOF when the conn is closed next.
func abortConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
}

// ListenAndServe accepts and proxies connections until the listener
// closes. Transient accept errors back off exactly like the offload
// server's loop; per-connection errors go to errf (may be nil).
func (r *Router) ListenAndServe(ln net.Listener, errf func(error)) {
	backoff := 5 * time.Millisecond
	const maxBackoff = time.Second
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				break
			}
			if errf != nil {
				errf(fmt.Errorf("cluster: accept: %w (retrying in %v)", err, backoff))
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = 5 * time.Millisecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.Serve(conn); err != nil && errf != nil {
				errf(err)
			}
		}()
	}
	wg.Wait()
}
