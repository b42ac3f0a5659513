package offload

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/rf"
	"repro/internal/sensing"
	"repro/internal/telemetry"
)

// peerVersions are the protocol versions an old or future peer may
// announce: every one but ProtocolVersion must end the handshake.
var peerVersions = []byte{2, 3, 4, ProtocolVersion + 1}

// TestVersionMatrix pairs this build's one protocol version against
// every peer version on each side of the handshake. v5 against v5
// serves a walk and delivers a survey; a server facing any other hello
// version rejects it with a reason and closes; a client facing any
// other welcome version fails with ErrProtocol. There is no downgrade.
func TestVersionMatrix(t *testing.T) {
	t.Run(fmt.Sprintf("server_v%d/client_v%d", ProtocolVersion, ProtocolVersion), func(t *testing.T) {
		factory, w, store := sharedStoreWorld(t, telemetry.NewRegistry())
		srv := newTestServer(t, ServerConfig{
			Factory:   factory,
			MapStores: map[byte]*mapstore.Store{MapWiFi: store},
		})
		client := pipeClient(t, srv)
		start, snaps := corridorWalk(w, 2, 55, 4)
		results := runWalk(t, client, start, snaps)
		if len(results) != 4 || !results[len(results)-1].OK {
			t.Fatalf("walk failed: %+v", results[len(results)-1])
		}
		if err := client.SubmitSurvey(MapWiFi, geo.Pt(3, 3),
			rf.Vector{{ID: "a0", RSSI: -48}, {ID: "a1", RSSI: -61}}); err != nil {
			t.Fatalf("survey refused: %v", err)
		}
		// The frame is fire-and-forget; a follow-up epoch orders the
		// stream so the survey has been ingested by the time its result
		// returns.
		if _, err := client.Localize(snaps[len(snaps)-1]); err != nil {
			t.Fatal(err)
		}
		if store.Pending() != 1 {
			t.Fatalf("store pending = %d after survey, want 1", store.Pending())
		}
	})
	for _, v := range peerVersions {
		t.Run(fmt.Sprintf("server_v%d/client_v%d", ProtocolVersion, v), func(t *testing.T) {
			serverRejectsHello(t, v)
		})
		t.Run(fmt.Sprintf("server_v%d/client_v%d", v, ProtocolVersion), func(t *testing.T) {
			clientRejectsWelcome(t, v)
		})
	}
}

// serverRejectsHello sends a raw hello announcing version v: the
// server must answer with a rejecting welcome that names the version,
// open no session, close the connection, and report ErrProtocol.
func serverRejectsHello(t *testing.T, v byte) {
	factory, _ := offloadWorld(t)
	srv := newTestServer(t, ServerConfig{Factory: factory})
	c1, c2 := net.Pipe()
	t.Cleanup(func() { _ = c1.Close() })
	done := make(chan error, 1)
	go func() { done <- srv.Serve(c2) }()
	if _, err := WriteFrame(c1, MsgHello, EncodeHello(&Hello{Version: v, ClientID: "old-phone"})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(c1)
	if err != nil || typ != MsgWelcome {
		t.Fatalf("welcome read: type %d, %v", typ, err)
	}
	w, err := DecodeWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}
	if w.OK {
		t.Fatalf("hello v%d accepted", v)
	}
	if w.Version != ProtocolVersion || !strings.Contains(w.Reason, fmt.Sprintf("version %d", v)) {
		t.Errorf("rejection = %+v, want version %d and a reason naming v%d", w, ProtocolVersion, v)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("serve = %v, want ErrProtocol", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server kept the connection after rejecting the hello")
	}
	if _, _, err := ReadFrame(c1); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("read after rejection = %v, want a closed connection", err)
	}
	if st := srv.Stats(); st.Opened != 0 || st.Active != 0 {
		t.Errorf("rejected hello opened a session: %+v", st)
	}
}

// clientRejectsWelcome runs a client against a hand-rolled server that
// welcomes it at version v: Hello must fail with ErrProtocol, and the
// client must not consider the session open.
func clientRejectsWelcome(t *testing.T, v byte) {
	c1, c2 := net.Pipe()
	t.Cleanup(func() { _ = c1.Close(); _ = c2.Close() })
	go func() {
		if _, _, err := ReadFrame(c2); err != nil {
			return
		}
		_, _ = WriteFrame(c2, MsgWelcome, EncodeWelcome(&Welcome{Version: v, OK: true, SessionID: 1}))
	}()
	client := NewClient(c1, "phone")
	if err := client.Hello(geo.Pt(0, 0)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("hello against a v%d welcome = %v, want ErrProtocol", v, err)
	}
	if client.SessionID() != 0 {
		t.Errorf("session id = %d after a refused welcome, want 0", client.SessionID())
	}
}

// TestShortContextEndsSessionLoudly feeds a live session the 13-byte
// epoch header (no sequence number): the server must answer no result,
// close the connection, and return ErrProtocol from Serve instead of
// treating the frame as a quiet transport failure. The walk's state is
// parked for resume like any other failed connection.
func TestShortContextEndsSessionLoudly(t *testing.T) {
	factory, w := offloadWorld(t)
	srv := newTestServer(t, ServerConfig{Factory: factory})
	c1, c2 := net.Pipe()
	t.Cleanup(func() { _ = c1.Close() })
	done := make(chan error, 1)
	go func() { done <- srv.Serve(c2) }()
	client := NewClient(c1, "phone-13")
	start, snaps := corridorWalk(w, 2, 13, 2)
	runWalk(t, client, start, snaps)

	short := EncodeContextSeq(&sensing.Snapshot{Epoch: 2}, 0)[:13]
	if _, err := WriteFrame(c1, MsgContext, short); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("serve = %v, want ErrProtocol", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server kept serving after a 13-byte context")
	}
	if typ, _, err := ReadFrame(c1); err == nil {
		t.Fatalf("server answered a 13-byte context with frame type %d", typ)
	}
	if st := srv.Stats(); st.EpochsServed != 2 || st.Detached != 1 {
		t.Errorf("stats = served %d detached %d, want 2 and 1", st.EpochsServed, st.Detached)
	}
}
