package offload

import (
	"net"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestGracefulDrain is the drain satellite's acceptance test: a node
// under traffic drains — in-flight epochs finish and deliver their
// results, sessions then close with a clean EOF at the epoch boundary
// — and the client's reconnect path finishes the walk on another node
// instead of timing out. Run under -race in CI.
func TestGracefulDrain(t *testing.T) {
	factory, w := offloadWorld(t)
	cfg := ServerConfig{Factory: factory}
	a := startLiveServer(t, "127.0.0.1:0", cfg)
	b := startLiveServer(t, "127.0.0.1:0", cfg)
	defer a.kill()
	defer b.kill()
	addrA, addrB := a.ln.Addr().String(), b.ln.Addr().String()

	// Dial prefers A (the draining node) and falls back to B — the
	// single-client stand-in for a router that marks A down.
	dial := func() (net.Conn, error) {
		if conn, err := net.Dial("tcp", addrA); err == nil {
			return conn, nil
		}
		return net.Dial("tcp", addrB)
	}
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(conn, "phone-drain")
	client.SetTimeout(2 * time.Second)
	client.SetReconnect(dial, Backoff{Min: 5 * time.Millisecond, Max: 100 * time.Millisecond, Attempts: 20, Seed: 3})
	client.SetMetrics(telemetry.NewRegistry())
	defer func() { _ = client.Close() }()

	const epochs = 16
	start, snaps := corridorWalk(w, 2, 5, epochs)
	if err := client.Hello(start); err != nil {
		t.Fatal(err)
	}
	drained := make(chan int, 1)
	for i, snap := range snaps {
		if i == 6 {
			// SIGTERM on node A: listener first (no new sessions), then
			// drain. Drain blocks until the session reaches an epoch
			// boundary, so it runs alongside the walk — the very next
			// epoch finishes, delivers its result, and closes the
			// connection, well inside the grace window.
			_ = a.ln.Close()
			go func() { drained <- a.srv.Drain(2 * time.Second) }()
		}
		res, err := client.Localize(snap)
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		if !res.OK {
			t.Fatalf("epoch %d: result not OK", i)
		}
	}
	if forced := <-drained; forced != 0 {
		t.Errorf("drain force-closed %d connections, want 0", forced)
	}
	if !a.srv.Draining() {
		t.Error("Draining() = false after Drain")
	}

	if client.Reconnects() < 1 {
		t.Fatalf("client reconnected %d times, want >= 1", client.Reconnects())
	}
	if st := a.srv.Stats(); st.Drained < 1 || st.DeadlineTimeouts != 0 {
		t.Fatalf("node A drained=%d deadlineTimeouts=%d, want >=1 and 0", st.Drained, st.DeadlineTimeouts)
	}
	// The walk finished on B.
	if st := b.srv.Stats(); st.EpochsServed == 0 {
		t.Fatal("node B served no epochs after the drain")
	}
}

// TestDrainIdleForceClose covers the grace expiry: a session idling
// between epochs (its client is walking, no frames in flight) cannot
// reach an epoch boundary, so Drain force-closes it when the grace
// runs out — counted, and still a connection close the client's
// reconnect survives.
func TestDrainIdleForceClose(t *testing.T) {
	factory, w := offloadWorld(t)
	ls := startLiveServer(t, "127.0.0.1:0", ServerConfig{Factory: factory})
	defer ls.kill()

	conn, err := net.Dial("tcp", ls.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(conn, "phone-idle")
	start, snaps := corridorWalk(w, 2, 9, 2)
	results := runWalk(t, client, start, snaps)
	if !results[len(results)-1].OK {
		t.Fatal("warmup walk failed")
	}

	// Right after answering an epoch the serving goroutine checks for a
	// drain and, if one began meanwhile, closes at that boundary itself
	// — a graceful close, not the forced one under test. Only a session
	// already blocked reading its next epoch is idle for certain, so
	// park the walk with a connection reset and resume it on a fresh
	// connection: a resumed session goes straight to that read.
	_ = conn.(*net.TCPConn).SetLinger(0)
	_ = client.Close()
	for deadline := time.Now().Add(5 * time.Second); ls.srv.Stats().Detached < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("reset connection was never parked")
		}
	}
	conn, err = net.Dial("tcp", ls.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client = NewClient(conn, "phone-idle")
	defer func() { _ = client.Close() }()
	if err := client.Hello(start); err != nil {
		t.Fatal(err)
	}
	if client.Resumes() != 1 {
		t.Fatal("the walked session was not resumed")
	}

	_ = ls.ln.Close()
	if forced := ls.srv.Drain(50 * time.Millisecond); forced != 1 {
		t.Fatalf("drain force-closed %d connections, want 1", forced)
	}
	// Drain closes the connection; the serving goroutine then ends the
	// session on its own schedule.
	st := ls.srv.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.Active != 0 && time.Now().Before(deadline); st = ls.srv.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Drained != 1 || st.Active != 0 {
		t.Fatalf("after forced drain: drained=%d active=%d, want 1 and 0", st.Drained, st.Active)
	}
	// The client observes a dead connection, not a served result.
	if _, err := client.Localize(snaps[0]); err == nil {
		t.Fatal("localize succeeded on a drained node")
	}
}
