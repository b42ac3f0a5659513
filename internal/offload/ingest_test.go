package offload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/noise"
	"repro/internal/regress"
	"repro/internal/rf"
	"repro/internal/schemes"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// sharedStoreWorld is offloadWorld over a shared mapstore.Store: every
// session's wifi scheme reads the same versioned map, and the server
// routes MsgSurvey submissions into it.
func sharedStoreWorld(t testing.TB, reg *telemetry.Registry) (core.FrameworkFactory, *world.World, *mapstore.Store) {
	return sharedStoreWorldBatch(t, reg, 1<<30) // rebuilds driven by the test
}

// sharedStoreWorldBatch is sharedStoreWorld with a configurable
// compaction batch size, so flood tests can exercise the background
// compactor mid-traffic.
func sharedStoreWorldBatch(t testing.TB, reg *telemetry.Registry, batch int) (core.FrameworkFactory, *world.World, *mapstore.Store) {
	t.Helper()
	w := &world.World{
		Name:  "shared",
		Noise: noise.Field{Seed: 8},
		Proj:  geo.Projection{Origin: geo.LatLon{Lat: 1.3, Lon: 103.7}},
		Regions: []world.Region{
			{Name: "hall", Kind: world.KindOffice, Poly: geo.RectPoly(0, 0, 40, 4), SkyOpenness: 0.05, LightLux: 300, MagNoise: 2, CorridorWidth: 2.5},
		},
		APs: []world.Site{
			{ID: "a0", Pos: geo.Pt(5, 3), TxPowerDBm: 16},
			{ID: "a1", Pos: geo.Pt(20, 1), TxPowerDBm: 16},
			{ID: "a2", Pos: geo.Pt(35, 3), TxPowerDBm: 16},
		},
	}
	db := fingerprint.Survey(w, rf.WiFiModel(), w.APs, 3, rand.New(rand.NewSource(1)))
	store := mapstore.New(db, mapstore.Config{
		Name:         "wifi",
		RebuildBatch: batch,
		Metrics:      mapstore.NewMetrics(reg, "wifi"),
	})
	t.Cleanup(store.Close)
	ms := core.NewModelSet()
	for _, name := range []string{schemes.NameWiFi, schemes.NameMotion} {
		for _, env := range []core.EnvClass{core.EnvIndoor, core.EnvOutdoor} {
			ms.Put(&core.ErrorModel{
				Scheme: name, Env: env, Features: nil,
				Reg: &regress.Result{HasIntercept: true, Intercept: 3, ResidStd: 2},
			})
		}
	}
	factory := func() (*core.Framework, error) {
		ss := []schemes.Scheme{
			schemes.NewWiFi(store),
			schemes.NewPDR(w, schemes.DefaultPDRConfig(), rand.New(rand.NewSource(2))),
		}
		return core.NewFramework(ss, ms)
	}
	return factory, w, store
}

// TestSurveyIngestion drives the full crowdsourcing loop over the wire:
// a client submits survey points mid-walk, the server routes them into
// the shared store, a compaction folds them in, and the next epochs are
// served from the advanced snapshot version.
func TestSurveyIngestion(t *testing.T) {
	reg := telemetry.NewRegistry()
	factory, w, store := sharedStoreWorld(t, reg)
	srv := newTestServer(t, ServerConfig{
		Factory:   factory,
		Metrics:   reg,
		MapStores: map[byte]*mapstore.Store{MapWiFi: store},
	})
	client := pipeClient(t, srv)

	start, snaps := corridorWalk(w, 2, 3, 20)
	if err := client.Hello(start); err != nil {
		t.Fatal(err)
	}
	baseLen := store.View().Len()

	// First half of the walk on snapshot version 1, submitting surveys
	// along the way.
	model := rf.WiFiModel()
	rnd := rand.New(rand.NewSource(99))
	for i, snap := range snaps[:10] {
		if _, err := client.Localize(snap); err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		p := geo.Pt(1+float64(i)*3.5, 0.5)
		vec := model.Scan(w, w.APs, p, rf.Reference(), rnd)
		if len(vec) < 2 {
			continue
		}
		if err := client.SubmitSurvey(MapWiFi, p, vec); err != nil {
			t.Fatalf("survey %d: %v", i, err)
		}
	}
	// Unusable and misrouted submissions are dropped, not fatal.
	if err := client.SubmitSurvey(MapWiFi, geo.Pt(1, 1), rf.Vector{{ID: "a0", RSSI: -50}}); err != nil {
		t.Fatal(err)
	}
	if err := client.SubmitSurvey(MapCellular, geo.Pt(1, 1), vecOf("a0", -50, "a1", -60)); err != nil {
		t.Fatal(err)
	}
	// A Localize round trip guarantees all survey frames were consumed
	// (frames are processed strictly in order on one connection).
	if _, err := client.Localize(snaps[10]); err != nil {
		t.Fatal(err)
	}

	ingested := store.Pending()
	if ingested == 0 {
		t.Fatal("no survey points reached the store")
	}
	if v := store.Rebuild(); v != 2 {
		t.Fatalf("rebuild version = %d, want 2", v)
	}
	if got := store.View().Len(); got != baseLen+ingested {
		t.Fatalf("store grew to %d, want %d", got, baseLen+ingested)
	}

	// Remaining epochs are served from the new version without error.
	for i, snap := range snaps[11:] {
		res, err := client.Localize(snap)
		if err != nil {
			t.Fatalf("post-swap epoch %d: %v", i, err)
		}
		if !res.OK {
			t.Fatalf("post-swap epoch %d: result not OK", i)
		}
	}

	ms := reg.Snapshot()
	if got, _ := ms.Get("uniloc_surveys_ingested_total"); got != float64(ingested) {
		t.Fatalf("uniloc_surveys_ingested_total = %v, want %v", got, ingested)
	}
	if got, _ := ms.Get("uniloc_surveys_dropped_total"); got != 2 {
		t.Fatalf("uniloc_surveys_dropped_total = %v, want 2", got)
	}
	if got, _ := ms.Get("uniloc_mapstore_snapshot_version", "map", "wifi"); got != 2 {
		t.Fatalf("uniloc_mapstore_snapshot_version = %v, want 2", got)
	}
}

// TestSurveyFloodOfMalformedInput pushes a sustained, concurrent flood
// of mostly-garbage survey submissions — NaN positions, out-of-bounds
// coordinates, single-transmitter and duplicate-transmitter vectors —
// through the wire ingest path into a store with a small compaction
// batch, so the
// background compactor churns while the garbage arrives. The contract:
// every submission is either ingested or dropped (counters add up),
// the compactor neither stalls nor panics, the snapshot version
// advances past the garbage, and sessions keep localizing throughout.
func TestSurveyFloodOfMalformedInput(t *testing.T) {
	reg := telemetry.NewRegistry()
	factory, w, store := sharedStoreWorldBatch(t, reg, 16)
	srv := newTestServer(t, ServerConfig{
		Factory:   factory,
		Metrics:   reg,
		MapStores: map[byte]*mapstore.Store{MapWiFi: store},
	})
	// Batch kicks compact on the store's own goroutine; the hook lets
	// the version check below wait for the first swap instead of racing
	// it. It runs after the swap, under the rebuild lock.
	rebuilt := make(chan struct{})
	var once sync.Once
	store.SetOnRebuild(func(uint64, []fingerprint.Fingerprint) {
		once.Do(func() { close(rebuilt) })
	})

	const clients = 3
	const perClient = 200
	model := rf.WiFiModel()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cli := 0; cli < clients; cli++ {
		client := pipeClient(t, srv)
		_, snaps := corridorWalk(w, 1+float64(cli), int64(40+cli), 10)
		wg.Add(1)
		go func(cli int, client *Client) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(500 + cli)))
			if err := client.Hello(geo.Pt(2, 2)); err != nil {
				errs <- err
				return
			}
			for i := 0; i < perClient; i++ {
				var pos geo.Point
				var vec rf.Vector
				switch i % 5 {
				case 0: // valid point, distinct positions across the hall
					pos = geo.Pt(float64(1+(i*7)%38), 0.5+float64(cli))
					vec = model.Scan(w, w.APs, pos, rf.Reference(), rnd)
				case 1: // NaN position
					pos = geo.Pt(math.NaN(), 2)
					vec = vecOf("a0", -50, "a1", -60)
				case 2: // absurdly out of bounds
					pos = geo.Pt(1e9, -1e9)
					vec = vecOf("a0", -50, "a1", -60)
				case 3: // too few transmitters
					pos = geo.Pt(5, 2)
					vec = rf.Vector{{ID: "a0", RSSI: -50}}
				case 4: // duplicate transmitters merging below the minimum
					pos = geo.Pt(5, 2)
					vec = rf.Vector{{ID: "a0", RSSI: -50}, {ID: "a0", RSSI: -40}}
				}
				if err := client.SubmitSurvey(MapWiFi, pos, vec); err != nil {
					errs <- err
					return
				}
				// Interleave epochs so the flood shares the connection
				// with real traffic the way a misbehaving phone would.
				if i%25 == 24 {
					if _, err := client.Localize(snaps[(i/25)%len(snaps)]); err != nil {
						errs <- err
						return
					}
				}
			}
			// A final round trip guarantees every survey frame before it
			// was consumed (frames are handled in order per connection).
			if res, err := client.Localize(snaps[0]); err != nil {
				errs <- err
			} else if !res.OK {
				errs <- fmt.Errorf("client %d: final epoch not OK after flood", cli)
			}
		}(cli, client)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The flood queued far more than one batch of valid points, so the
	// compactor must swap at least once.
	select {
	case <-rebuilt:
	case <-time.After(10 * time.Second):
	}
	if v := store.Version(); v < 2 {
		t.Errorf("snapshot version = %d, want >= 2 (compactor never ran during the flood)", v)
	}
	// Drain the tail and verify the store still compacts cleanly.
	store.Rebuild()
	if p := store.Pending(); p != 0 {
		t.Errorf("pending = %d after final rebuild, want 0", p)
	}

	snap := reg.Snapshot()
	ingested, _ := snap.Get("uniloc_surveys_ingested_total")
	dropped, _ := snap.Get("uniloc_surveys_dropped_total")
	total := float64(clients * perClient)
	if ingested+dropped != total {
		t.Errorf("ingested (%v) + dropped (%v) = %v, want %v — a submission vanished uncounted",
			ingested, dropped, ingested+dropped, total)
	}
	// Every malformed submission (4 of each 5) must have been dropped;
	// the valid fifth may still be rejected when a scan comes up short,
	// but some of 120 spread positions must land.
	if minDropped := total * 4 / 5; dropped < minDropped {
		t.Errorf("dropped = %v, want >= %v", dropped, minDropped)
	}
	if ingested == 0 {
		t.Error("no valid survey survived the flood")
	}

	// Non-finite RSSI cannot survive the wire (the protocol quantizes
	// RSSI to int16 deci-dB), so the store's ErrBadRSSI defense is
	// exercised directly: a locally-submitted NaN reading must be
	// rejected even after the flood.
	err := store.Submit(fingerprint.Fingerprint{
		Pos: geo.Pt(5, 2),
		Vec: rf.Vector{{ID: "a0", RSSI: math.NaN()}, {ID: "a1", RSSI: -60}},
	})
	if err == nil {
		t.Error("store accepted a NaN RSSI via direct Submit")
	}
}

func vecOf(idA string, rssiA float64, idB string, rssiB float64) rf.Vector {
	return rf.Vector{{ID: idA, RSSI: rssiA}, {ID: idB, RSSI: rssiB}}
}

// TestServerWithoutStoresDropsSurveys pins that MsgSurvey on a server
// with no configured stores is counted and ignored, never an error.
func TestServerWithoutStoresDropsSurveys(t *testing.T) {
	reg := telemetry.NewRegistry()
	factory, w := offloadWorld(t)
	srv := newTestServer(t, ServerConfig{Factory: factory, Metrics: reg})
	client := pipeClient(t, srv)

	start, snaps := corridorWalk(w, 2, 5, 3)
	if err := client.Hello(start); err != nil {
		t.Fatal(err)
	}
	if err := client.SubmitSurvey(MapWiFi, geo.Pt(3, 2), vecOf("a0", -48, "a1", -62)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Localize(snaps[0]); err != nil {
		t.Fatal(err)
	}
	if got, _ := reg.Snapshot().Get("uniloc_surveys_dropped_total"); got != 1 {
		t.Fatalf("uniloc_surveys_dropped_total = %v, want 1", got)
	}
}

func TestSurveyRoundTrip(t *testing.T) {
	in := &Survey{
		Map: MapWiFi,
		X:   12.345678901234, // float64 precision must survive the wire
		Y:   -7.000000000001,
		Vec: rf.Vector{{ID: "ap-aa", RSSI: -48.3}, {ID: "ap-bb", RSSI: -71.9}},
	}
	out, err := DecodeSurvey(EncodeSurvey(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Map != in.Map || out.X != in.X || out.Y != in.Y {
		t.Fatalf("round trip mutated header: %+v != %+v", out, in)
	}
	if len(out.Vec) != len(in.Vec) {
		t.Fatalf("vector length %d != %d", len(out.Vec), len(in.Vec))
	}
	for i := range out.Vec {
		if out.Vec[i].ID != in.Vec[i].ID || out.Vec[i].RSSI != in.Vec[i].RSSI {
			t.Fatalf("vec[%d] = %+v != %+v", i, out.Vec[i], in.Vec[i])
		}
	}
	if _, err := DecodeSurvey([]byte{1, 2, 3}); err == nil {
		t.Fatal("short survey frame must error")
	}
}
