// Mapstore demonstrates the shared radio-map store: one versioned,
// indexed fingerprint map serving every offload session, kept fresh by
// crowdsourced survey submissions. Two "phones" walk the campus
// concurrently, localizing against the same store snapshot; a third
// client plays the crowdsourcing fleet, streaming survey points
// (MsgSurvey) that the store's background compactor folds
// into new snapshot versions — without pausing either walker, and with
// results bit-identical to a linear scan of the same map at every
// version.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"

	uniloc "repro"
	"repro/internal/geo"
)

func main() {
	const seed = 42
	trained, err := uniloc.Train(seed)
	if err != nil {
		log.Fatalf("train: %v", err)
	}
	place := uniloc.Campus()
	assets := uniloc.NewAssets(place, seed+100)

	// --- One shared map per radio technology. Every session's schemes
	// read through atomic snapshots of these stores instead of scanning
	// private database copies.
	reg := uniloc.NewMetricsRegistry()
	wifiStore := uniloc.NewMapStore(assets.WiFiDB, uniloc.MapStoreConfig{Name: "wifi", RebuildBatch: 40})
	cellStore := uniloc.NewMapStore(assets.CellDB, uniloc.MapStoreConfig{Name: "cellular", RebuildBatch: 40})
	defer wifiStore.Close()
	defer cellStore.Close()
	fmt.Printf("shared wifi map: version %d, %d fingerprints\n",
		wifiStore.Version(), wifiStore.View().Len())

	// --- Server side: fresh framework per phone, all frameworks over
	// the same two stores; survey submissions routed into them.
	var sessionSeq atomic.Int64
	factory := func() (*uniloc.Framework, error) {
		n := sessionSeq.Add(1)
		ss := uniloc.NewSchemesOver(assets, wifiStore, cellStore, rand.New(rand.NewSource(seed+7+n)))
		return uniloc.NewFramework(ss, trained.Models)
	}
	srv, err := uniloc.NewOffloadServer(uniloc.OffloadServerConfig{
		Factory: factory,
		Metrics: reg,
		MapStores: map[byte]*uniloc.MapStore{
			uniloc.MapWiFi:     wifiStore,
			uniloc.MapCellular: cellStore,
		},
	})
	if err != nil {
		log.Fatalf("server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	go srv.ListenAndServe(ln, func(err error) { log.Printf("server: %v", err) })
	fmt.Println("offload server on", ln.Addr(), "(shared map, ingestion on)")

	var wg sync.WaitGroup

	// --- The crowdsourcing fleet: one client walks a path and submits
	// its WiFi scan at every 10th (ground-truth) position as a survey
	// point. Fire-and-forget frames; the compactor batches them into
	// fresh snapshot versions while the other phones keep localizing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			log.Fatalf("surveyor dial: %v", err)
		}
		client := uniloc.NewOffloadClient(conn, "surveyor")
		defer func() { _ = client.Close() }()
		path := place.Paths[2]
		rnd := rand.New(rand.NewSource(301))
		wk := uniloc.NewWalker(place.World, path, assets.DefaultWalkerConfig(), rnd)
		submitted := 0
		for i := 0; !wk.Done(); i++ {
			snap, truth := wk.Next(true)
			if i%10 != 0 || len(snap.WiFi) < 2 {
				continue
			}
			if err := client.SubmitSurvey(uniloc.MapWiFi, truth, snap.WiFi); err != nil {
				log.Fatalf("surveyor submit: %v", err)
			}
			submitted++
		}
		fmt.Printf("surveyor: submitted %d wifi survey points along %s\n", submitted, path.Name)
	}()

	// --- Two phones localize concurrently against the shared store.
	for i, pathIdx := range []int{0, 1} {
		wg.Add(1)
		go func(phone, pathIdx int) {
			defer wg.Done()
			path := place.Paths[pathIdx]
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				log.Fatalf("phone %d dial: %v", phone, err)
			}
			client := uniloc.NewOffloadClient(conn, fmt.Sprintf("phone-%d", phone))
			defer func() { _ = client.Close() }()

			start, _ := path.Line.At(0)
			if err := client.Hello(start); err != nil {
				log.Fatalf("phone %d hello: %v", phone, err)
			}
			rnd := rand.New(rand.NewSource(int64(99 + phone)))
			wk := uniloc.NewWalker(place.World, path, assets.DefaultWalkerConfig(), rnd)
			var sumErr float64
			var n int
			for !wk.Done() {
				snap, truth := wk.Next(true)
				res, err := client.Localize(snap)
				if err != nil {
					log.Fatalf("phone %d localize: %v", phone, err)
				}
				if !res.OK {
					continue
				}
				sumErr += geo.Pt(res.X, res.Y).Dist(truth)
				n++
			}
			fmt.Printf("phone %d (%s): %d epochs, mean fused error %.2f m\n",
				phone, path.Name, n, sumErr/float64(n))
		}(i, pathIdx)
	}
	wg.Wait()

	// Flush whatever the batch trigger hasn't folded in yet, then show
	// how far the shared map moved while the phones walked.
	wifiStore.Rebuild()
	snap := reg.Snapshot()
	ingested, _ := snap.Get("uniloc_surveys_ingested_total")
	fmt.Printf("shared wifi map after the walks: version %d, %d fingerprints (%.0f surveys ingested)\n",
		wifiStore.Version(), wifiStore.View().Len(), ingested)
	if wifiStore.Version() < 2 {
		log.Fatal("expected the shared map to advance past version 1")
	}

	_ = ln.Close()
	st := srv.Stats()
	fmt.Printf("server stats: opened=%d closed=%d epochs=%d avg-step=%v\n",
		st.Opened, st.Closed, st.EpochsServed, st.EpochLatencyAvg)
}
