package offload

import (
	"fmt"
	"math/rand"
	"net"
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
	"repro/internal/sensing"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// fusionStoreWorld is sharedStoreWorld with the fusion scheme in the
// factory: fusion is the heaviest consumer of the shared-compute cache
// (per-cell RSSI likelihood rows), so the bit-identity proof must run
// it, not just the wifi tracker. WiFi and fusion are linked through
// schemes.ShareRSSIDev, as on the real serving path.
func fusionStoreWorld(t testing.TB, reg *telemetry.Registry) (core.FrameworkFactory, *world.World, *mapstore.Store) {
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
		RebuildBatch: 1 << 30, // rebuilds driven by the test
		Metrics:      mapstore.NewMetrics(reg, "wifi"),
	})
	t.Cleanup(store.Close)
	ms := core.NewModelSet()
	for _, name := range []string{schemes.NameWiFi, schemes.NameMotion, schemes.NameFusion} {
		for _, env := range []core.EnvClass{core.EnvIndoor, core.EnvOutdoor} {
			ms.Put(&core.ErrorModel{
				Scheme: name, Env: env, Features: nil,
				Reg: &regress.Result{HasIntercept: true, Intercept: 3, ResidStd: 2},
			})
		}
	}
	factory := func() (*core.Framework, error) {
		// Linked like scenario.Assets.SchemesOver, which builds every
		// real server session: WiFi hands fusion its RSSI deviation.
		wifi := schemes.NewWiFi(store)
		fusion := schemes.NewFusion(w, store, schemes.DefaultFusionConfig(), rand.New(rand.NewSource(3)))
		schemes.ShareRSSIDev(wifi, fusion)
		ss := []schemes.Scheme{
			wifi,
			schemes.NewPDR(w, schemes.DefaultPDRConfig(), rand.New(rand.NewSource(2))),
			fusion,
		}
		return core.NewFramework(ss, ms)
	}
	return factory, w, store
}

// TestSharedComputeMatchesPrivate64 is the golden check that
// concurrent serving matches the private reference walk: 64 sessions
// stepping at once on their own connections, with the shared-compute
// cache on and pins migrating across a mid-walk compaction swap,
// produce exactly — struct-equal, so Float64bits — the Results the
// same walks get from isolated private sessions served one epoch at a
// time with the cache off. Run under -race in CI: lock-free index
// reads, row fills, and pin migration all race here by construction.
func TestSharedComputeMatchesPrivate64(t *testing.T) {
	const nClients = 64
	const epochs = 10
	const swapAt = 5 // map v1 for epochs [0,5), v2 for [5,10)

	survey := fingerprint.Fingerprint{
		Pos: geo.Pt(12, 2),
		Vec: rf.Vector{{ID: "a0", RSSI: -52}, {ID: "a1", RSSI: -58}},
	}

	// Reference: private compute, no cache, one epoch at a time.
	refFactory, rw, refStore := fusionStoreWorld(t, telemetry.NewRegistry())
	starts := make([]geo.Point, nClients)
	walks := make([][]*sensing.Snapshot, nClients)
	for i := range walks {
		starts[i], walks[i] = corridorWalk(rw, 1+float64(i%4)*0.7, int64(40+i), epochs)
	}
	refSrv := newTestServer(t, ServerConfig{Factory: refFactory})
	refClients := make([]*Client, nClients)
	want := make([][]*Result, nClients)
	for i := range refClients {
		refClients[i] = pipeClient(t, refSrv)
		if err := refClients[i].Hello(starts[i]); err != nil {
			t.Fatalf("ref hello %d: %v", i, err)
		}
		want[i] = make([]*Result, epochs)
	}
	refPhase := func(lo, hi int) {
		for i, c := range refClients {
			for k := lo; k < hi; k++ {
				res, err := c.Localize(walks[i][k])
				if err != nil {
					t.Fatalf("ref client %d epoch %d: %v", i, k, err)
				}
				want[i][k] = res
			}
		}
	}
	refPhase(0, swapAt)
	if err := refStore.Submit(survey); err != nil {
		t.Fatal(err)
	}
	refStore.Rebuild()
	refPhase(swapAt, epochs)

	// Shared: identically-built world, shared-compute cache on, all
	// clients stepping concurrently.
	shFactory, _, shStore := fusionStoreWorld(t, telemetry.NewRegistry())
	srv := newTestServer(t, ServerConfig{
		Factory:       shFactory,
		BatchStores:   map[byte]*mapstore.Store{MapWiFi: shStore},
		SharedCompute: true,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ListenAndServe(ln, nil)
	t.Cleanup(func() { _ = ln.Close() })

	clients := make([]*Client, nClients)
	for i := range clients {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		clients[i] = NewClient(conn, fmt.Sprintf("phone-shared-%d", i))
		clients[i].SetTimeout(10 * time.Second)
		if err := clients[i].Hello(starts[i]); err != nil {
			t.Fatalf("hello %d: %v", i, err)
		}
	}
	got := make([][]*Result, nClients)
	for i := range got {
		got[i] = make([]*Result, epochs)
	}
	phase := func(lo, hi int) {
		var wg sync.WaitGroup
		errs := make(chan error, nClients)
		for i := range clients {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for k := lo; k < hi; k++ {
					res, err := clients[i].Localize(walks[i][k])
					if err != nil {
						errs <- fmt.Errorf("client %d epoch %d: %w", i, k, err)
						return
					}
					got[i][k] = res
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	phase(0, swapAt)
	if err := shStore.Submit(survey); err != nil {
		t.Fatal(err)
	}
	shStore.Rebuild()
	phase(swapAt, epochs)

	for i := range want {
		for k := range want[i] {
			if *got[i][k] != *want[i][k] {
				t.Errorf("client %d epoch %d: shared %+v != private %+v", i, k, got[i][k], want[i][k])
			}
		}
	}

	st := srv.Stats()
	if st.SharedBuilt < 2 {
		t.Errorf("SharedBuilt = %d, want >= 2 (pre- and post-swap snapshots)", st.SharedBuilt)
	}
	// Every walk hears its own scans, so rows are consulted and filled
	// but never hit across sessions (TestSharedRowReadsMatchPrivate
	// covers the hit path).
	if st.SharedLikHits+st.SharedLikMisses == 0 {
		t.Error("no shared likelihood traffic from fusion sessions")
	} else {
		rate := float64(st.SharedLikHits) / float64(st.SharedLikHits+st.SharedLikMisses)
		t.Logf("shared-compute hit rate at %d sessions: %.3f (%d hits, %d misses)",
			nClients, rate, st.SharedLikHits, st.SharedLikMisses)
	}
	if st.SharedTrackers == 0 {
		t.Error("SharedTrackers = 0 — no tracker rebuild used shared positions")
	}
}

// TestSharedRowReadsMatchPrivate is the golden check for the shared
// read path: a shared likelihood row only hits when two sessions hear
// a bit-identical scan, so here pairs of phones walk the same walk at
// once. Whichever session publishes a cell first, the other reads it,
// and both must still produce exactly the private reference Results.
func TestSharedRowReadsMatchPrivate(t *testing.T) {
	const pairs = 4
	const epochs = 10

	refFactory, rw, _ := fusionStoreWorld(t, telemetry.NewRegistry())
	starts := make([]geo.Point, pairs)
	walks := make([][]*sensing.Snapshot, pairs)
	want := make([][]*Result, pairs)
	refSrv := newTestServer(t, ServerConfig{Factory: refFactory})
	for i := range walks {
		starts[i], walks[i] = corridorWalk(rw, 1+float64(i)*0.7, int64(70+i), epochs)
		want[i] = runWalk(t, pipeClient(t, refSrv), starts[i], walks[i])
	}

	shFactory, _, shStore := fusionStoreWorld(t, telemetry.NewRegistry())
	srv := newTestServer(t, ServerConfig{
		Factory:       shFactory,
		MapStores:     map[byte]*mapstore.Store{MapWiFi: shStore},
		SharedCompute: true,
	})
	clients := make([]*Client, 2*pairs)
	for i := range clients {
		clients[i] = pipeClient(t, srv)
	}
	got := make([][]*Result, len(clients))
	errs := make(chan error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			if err := c.Hello(starts[i/2]); err != nil {
				errs <- fmt.Errorf("client %d hello: %w", i, err)
				return
			}
			for k, snap := range walks[i/2] {
				res, err := c.Localize(snap)
				if err != nil {
					errs <- fmt.Errorf("client %d epoch %d: %w", i, k, err)
					return
				}
				got[i] = append(got[i], res)
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i := range got {
		for k := range got[i] {
			if *got[i][k] != *want[i/2][k] {
				t.Errorf("client %d epoch %d: shared %+v != private %+v", i, k, got[i][k], want[i/2][k])
			}
		}
	}
	if st := srv.Stats(); st.SharedLikHits == 0 {
		t.Errorf("SharedLikHits = 0 — no session read a likelihood its twin published (%d misses)", st.SharedLikMisses)
	}
}

// TestSharedComputeEviction pins the cache lifecycle at the server
// level: entries exist while sessions pin them and are gone — with the
// evicted counter advanced — once the last session closes.
func TestSharedComputeEviction(t *testing.T) {
	reg := telemetry.NewRegistry()
	factory, w, store := fusionStoreWorld(t, reg)
	srv := newTestServer(t, ServerConfig{
		Factory:       factory,
		Metrics:       reg,
		MapStores:     map[byte]*mapstore.Store{MapWiFi: store},
		SharedCompute: true,
	})

	const nClients = 3
	conns := make([]net.Conn, nClients)
	done := make([]chan error, nClients)
	clients := make([]*Client, nClients)
	for i := range clients {
		c1, c2 := net.Pipe()
		conns[i] = c1
		done[i] = make(chan error, 1)
		go func(c net.Conn, ch chan error) { ch <- srv.Serve(c) }(c2, done[i])
		clients[i] = NewClient(c1, fmt.Sprintf("evict-%d", i))
	}

	start, snaps := corridorWalk(w, 2, 3, 4)
	for i, c := range clients {
		if err := c.Hello(start); err != nil {
			t.Fatalf("hello %d: %v", i, err)
		}
		for k, snap := range snaps {
			if _, err := c.Localize(snap); err != nil {
				t.Fatalf("client %d epoch %d: %v", i, k, err)
			}
		}
	}

	st := srv.Stats()
	if st.SharedResident == 0 || st.SharedBuilt == 0 {
		t.Fatalf("cache idle while %d sessions pinned: %+v", nClients, st)
	}
	if v := st.SharedVersions["wifi"]; v != store.Version() {
		t.Fatalf("SharedVersions[wifi] = %d, want %d", v, store.Version())
	}
	if st.SharedLikHits+st.SharedLikMisses == 0 {
		t.Fatal("no shared likelihood traffic from fusion sessions")
	}

	for i, c := range conns {
		_ = c.Close()
		select {
		case <-done[i]:
		case <-time.After(2 * time.Second):
			t.Fatalf("server goroutine %d did not stop", i)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		st = srv.Stats()
		if st.SharedResident == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("entries still resident after all sessions closed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.SharedEvicted == 0 {
		t.Fatal("SharedEvicted = 0 after last session closed")
	}
	_ = clients
}

// servedEpochAllocsMax bounds heap allocations per served epoch on
// the default serving path. The path measured 45 when this guard was
// added with unlinked WiFi and fusion, and measures 43 with them
// linked as every real session is; the slack absorbs runtime noise
// such as map growth in the shared likelihood rows, not a new
// per-epoch allocation.
const servedEpochAllocsMax = 45 + 5

// TestServedEpochAllocsBounded is an absolute allocation guard on the
// served path: a pipe client walking a fusion world over a shared map
// store with shared compute on. Every epoch is a fresh scan (the walk
// never wraps), so the count includes shared-row misses and publishes.
func TestServedEpochAllocsBounded(t *testing.T) {
	factory, w, store := fusionStoreWorld(t, telemetry.NewRegistry())
	srv := newTestServer(t, ServerConfig{
		Factory:       factory,
		MapStores:     map[byte]*mapstore.Store{MapWiFi: store},
		SharedCompute: true,
	})
	client := pipeClient(t, srv)
	start, snaps := corridorWalk(w, 2, 3, 60)
	if err := client.Hello(start); err != nil {
		t.Fatal(err)
	}
	// Warm every lazily-built structure: session scratch, shared-compute
	// entry, tracker state.
	const warm = 20
	for _, snap := range snaps[:warm] {
		if _, err := client.Localize(snap); err != nil {
			t.Fatal(err)
		}
	}
	i := warm
	// AllocsPerRun makes one extra warm-up call, so runs+1 epochs remain.
	allocs := testing.AllocsPerRun(len(snaps)-warm-1, func() {
		if _, err := client.Localize(snaps[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("allocs/epoch: %.1f (bound %d)", allocs, servedEpochAllocsMax)
	if allocs > servedEpochAllocsMax {
		t.Errorf("served epoch allocates %.1f, bound %d", allocs, servedEpochAllocsMax)
	}
}
