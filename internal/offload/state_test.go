package offload

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mapstore"
	"repro/internal/prng"
	"repro/internal/regress"
	"repro/internal/schemes"
	"repro/internal/statecodec"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// TestReplayCacheBounds pins the v4 replay cache's eviction contract:
// entries and bytes are capped, oldest entries go first, the newest
// entry always survives, and every cached seq stays answerable until
// evicted.
func TestReplayCacheBounds(t *testing.T) {
	c := replayCache{maxEntries: 4, maxBytes: 1 << 20}
	evicted := 0
	for seq := uint32(1); seq <= 10; seq++ {
		evicted += c.put(seq, []byte(fmt.Sprintf("result-%d", seq)))
	}
	if evicted != 6 {
		t.Fatalf("evicted %d entries, want 6", evicted)
	}
	if len(c.entries) != 4 {
		t.Fatalf("cache holds %d entries, want 4", len(c.entries))
	}
	for seq := uint32(1); seq <= 6; seq++ {
		if c.get(seq) != nil {
			t.Errorf("seq %d should have been evicted", seq)
		}
	}
	for seq := uint32(7); seq <= 10; seq++ {
		want := fmt.Sprintf("result-%d", seq)
		if got := c.get(seq); string(got) != want {
			t.Errorf("seq %d: got %q, want %q", seq, got, want)
		}
	}

	// Byte cap: payloads of 100 bytes under a 250-byte cap keep 2.
	c = replayCache{maxEntries: 100, maxBytes: 250}
	for seq := uint32(1); seq <= 5; seq++ {
		c.put(seq, make([]byte, 100))
	}
	if len(c.entries) != 2 || c.bytes != 200 {
		t.Fatalf("byte-capped cache holds %d entries / %d bytes, want 2 / 200", len(c.entries), c.bytes)
	}

	// An oversized payload still keeps exactly the newest entry.
	c.put(6, make([]byte, 1000))
	if len(c.entries) != 1 || c.get(6) == nil {
		t.Fatalf("oversized newest entry must survive alone, have %d entries", len(c.entries))
	}

	// Re-putting an existing seq replaces, never duplicates.
	c = replayCache{}
	c.put(1, []byte("a"))
	c.put(1, []byte("bb"))
	if len(c.entries) != 1 || string(c.get(1)) != "bb" || c.bytes != 2 {
		t.Fatalf("re-put must replace: %d entries, %q, %d bytes", len(c.entries), c.get(1), c.bytes)
	}
}

// TestSessionStateRoundTrip pins the handoff blob codec.
func TestSessionStateRoundTrip(t *testing.T) {
	st := &SessionState{
		ClientID: "phone-42",
		Proto:    ProtocolVersion,
		Seq:      17,
		Replay: []ReplayEntry{
			{Seq: 16, Payload: []byte("r16")},
			{Seq: 17, Payload: []byte("r17")},
		},
		MapVers: map[byte]uint64{MapWiFi: 9, MapCellular: 4},
		FW:      []byte{1, 2, 3, 4},
	}
	blob := EncodeSessionState(st)
	got, err := DecodeSessionState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.ClientID != st.ClientID || got.Proto != st.Proto || got.Seq != st.Seq {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Replay) != 2 || got.Replay[0].Seq != 16 || !bytes.Equal(got.Replay[1].Payload, []byte("r17")) {
		t.Fatalf("replay mismatch: %+v", got.Replay)
	}
	if got.MapVers[MapWiFi] != 9 || got.MapVers[MapCellular] != 4 {
		t.Fatalf("map versions mismatch: %+v", got.MapVers)
	}
	if !bytes.Equal(got.FW, st.FW) {
		t.Fatalf("framework blob mismatch")
	}

	// Truncations and version skew fail loudly, never misread.
	if _, err := DecodeSessionState(blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated blob must be rejected")
	}
	bad := append([]byte{}, blob...)
	bad[0] = 99
	if _, err := DecodeSessionState(bad); err == nil {
		t.Fatal("unknown version must be rejected")
	}
}

// encodeSessionStateRef is EncodeSessionState as it was before the
// session export moved to one presized buffer: every field appended to
// a buffer grown from one byte. The golden test below holds the
// one-buffer export to its bytes.
func encodeSessionStateRef(st *SessionState) []byte {
	dst := []byte{sessionStateVersion}
	dst = statecodec.AppendString(dst, st.ClientID)
	dst = statecodec.AppendU8(dst, st.Proto)
	dst = statecodec.AppendU32(dst, st.Seq)
	dst = statecodec.AppendU32(dst, uint32(len(st.Replay)))
	for _, e := range st.Replay {
		dst = statecodec.AppendU32(dst, e.Seq)
		dst = statecodec.AppendBytes(dst, e.Payload)
	}
	dst = statecodec.AppendU32(dst, uint32(len(st.MapVers)))
	for id := 0; id < 256; id++ {
		v, ok := st.MapVers[byte(id)]
		if !ok {
			continue
		}
		dst = statecodec.AppendU8(dst, byte(id))
		dst = statecodec.AppendU64(dst, v)
	}
	return statecodec.AppendBytes(dst, st.FW)
}

// trackedStoreFactory is fusionStoreWorld's factory with the particle
// filters' RNG streams tracked, so its sessions can be exported.
func trackedStoreFactory(t testing.TB) (core.FrameworkFactory, *world.World, *mapstore.Store) {
	_, w, store := fusionStoreWorld(t, telemetry.NewRegistry())
	ms := core.NewModelSet()
	for _, name := range []string{schemes.NameWiFi, schemes.NameMotion, schemes.NameFusion} {
		for _, env := range []core.EnvClass{core.EnvIndoor, core.EnvOutdoor} {
			ms.Put(&core.ErrorModel{
				Scheme: name, Env: env,
				Reg: &regress.Result{HasIntercept: true, Intercept: 3, ResidStd: 2},
			})
		}
	}
	factory := func() (*core.Framework, error) {
		pdrSrc, fusionSrc := prng.New(2), prng.New(3)
		pdr := schemes.NewPDR(w, schemes.DefaultPDRConfig(), rand.New(pdrSrc))
		pdr.TrackSource(pdrSrc)
		fusion := schemes.NewFusion(w, store, schemes.DefaultFusionConfig(), rand.New(fusionSrc))
		fusion.TrackSource(fusionSrc)
		wifi := schemes.NewWiFi(store)
		schemes.ShareRSSIDev(wifi, fusion)
		return core.NewFramework([]schemes.Scheme{wifi, pdr, fusion}, ms)
	}
	return factory, w, store
}

// exportWalk opens one session and steps it through a corridor walk,
// calling at after every epoch with the session's replay cache and
// sequence number updated as the server would.
func exportWalk(t *testing.T, epochs int, at func(m *SessionManager, s *Session)) {
	factory, w, _ := trackedStoreFactory(t)
	m, err := NewSessionManager(factory, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	start, snaps := corridorWalk(w, 2, 9, epochs)
	s, err := m.Open("phone-7", start, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, snap := range snaps {
		res := s.fw.Step(snap)
		s.lastSeq = uint32(i + 1)
		s.replay.put(s.lastSeq, EncodeResult(&Result{X: res.BMA.X, Y: res.BMA.Y, OK: true}))
		at(m, s)
	}
}

// TestExportStateMatchesReferenceEncoder is the export path's golden
// test: the one-buffer ExportState and the exact-size
// EncodeSessionState must write byte for byte what the grow-as-you-go
// encoders wrote, every epoch of a walk.
func TestExportStateMatchesReferenceEncoder(t *testing.T) {
	vers := map[byte]uint64{MapWiFi: 3, MapCellular: 1}
	exportWalk(t, 30, func(m *SessionManager, s *Session) {
		got, err := m.ExportState(s, vers)
		if err != nil {
			t.Fatal(err)
		}
		fw, err := s.fw.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		st := &SessionState{
			ClientID: s.ClientID, Proto: ProtocolVersion, Seq: s.lastSeq,
			Replay: append([]ReplayEntry(nil), s.replay.entries...), MapVers: vers, FW: fw,
		}
		want := encodeSessionStateRef(st)
		if !bytes.Equal(got, want) {
			t.Fatalf("seq %d: ExportState differs from the reference encoding (%d vs %d bytes)", s.lastSeq, len(got), len(want))
		}
		if enc := EncodeSessionState(st); !bytes.Equal(enc, want) || cap(enc) != len(enc) {
			t.Fatalf("seq %d: EncodeSessionState differs from the reference or is not exact-size", s.lastSeq)
		}
	})
}

// TestExportStateAllocs guards the export garbage: once a session has
// exported once, an export is a few allocations totalling about one
// state's size, not the several grown copies it used to be.
func TestExportStateAllocs(t *testing.T) {
	vers := map[byte]uint64{MapWiFi: 3}
	exportWalk(t, 12, func(m *SessionManager, s *Session) {
		if s.lastSeq < 12 {
			return
		}
		blob, err := m.ExportState(s, vers)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := m.ExportState(s, vers); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up run
		t.Logf("export: %d bytes, %.0f allocs, %.0f bytes allocated per export", len(blob), allocs, perRun)
		if allocs > 4 {
			t.Errorf("ExportState makes %.0f allocations, want at most 4", allocs)
		}
		if perRun > 2*float64(len(blob)) {
			t.Errorf("ExportState allocates %.0f bytes for a %d-byte state, want at most 2x", perRun, len(blob))
		}
	})
}

// TestInjectRefusesOtherProtocol pins the handoff guard: a session
// blob arrives from a peer, so one stamped with any protocol version
// but ProtocolVersion is refused (and counted) rather than resumed.
func TestInjectRefusesOtherProtocol(t *testing.T) {
	var blob []byte
	var m *SessionManager
	exportWalk(t, 3, func(mgr *SessionManager, s *Session) {
		b, err := mgr.ExportState(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		blob, m = b, mgr
	})
	st, err := DecodeSessionState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if st.Proto != ProtocolVersion {
		t.Fatalf("exported proto = %d, want %d", st.Proto, ProtocolVersion)
	}
	for i, v := range []byte{4, ProtocolVersion + 1} {
		st.Proto = v
		if err := m.Inject(EncodeSessionState(st)); err == nil {
			t.Fatalf("Inject accepted a v%d session state", v)
		}
		if got := m.Stats().InjectFailures; got != int64(i+1) {
			t.Fatalf("inject failures = %d, want %d", got, i+1)
		}
	}
	st.Proto = ProtocolVersion
	if err := m.Inject(EncodeSessionState(st)); err != nil {
		t.Fatalf("Inject refused a v%d session state: %v", ProtocolVersion, err)
	}
}

// TestInjectRefusesEmptyFrameworkState: a handoff blob whose framework
// state is empty decodes as a session state, so Inject must refuse it
// at Framework.Restore with an error (it used to panic, killing the
// server), open no session, and leave the manager serving.
func TestInjectRefusesEmptyFrameworkState(t *testing.T) {
	var blob []byte
	var m *SessionManager
	exportWalk(t, 3, func(mgr *SessionManager, s *Session) {
		b, err := mgr.ExportState(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		blob, m = b, mgr
	})
	st, err := DecodeSessionState(blob)
	if err != nil {
		t.Fatal(err)
	}
	fwState := st.FW
	st.FW = nil
	empty := EncodeSessionState(st)
	if _, err := DecodeSessionState(empty); err != nil {
		t.Fatalf("empty framework state no longer decodes (%v): the test needs another way in", err)
	}
	live := len(m.Stats().Sessions)
	if err := m.Inject(empty); err == nil {
		t.Fatal("Inject accepted an empty framework state")
	}
	stats := m.Stats()
	if len(stats.Sessions) != live || stats.Injected != 0 || stats.InjectFailures != 1 {
		t.Fatalf("after the refusal: %d sessions (want %d), %d injected, %d failures",
			len(stats.Sessions), live, stats.Injected, stats.InjectFailures)
	}

	// Still serving: the intact state injects and resumes.
	st.FW = fwState
	if err := m.Inject(EncodeSessionState(st)); err != nil {
		t.Fatalf("Inject refused an intact state after the bad one: %v", err)
	}
	if got := m.Stats().Injected; got != 1 {
		t.Fatalf("injected = %d, want 1", got)
	}
}
