package offload

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/mapstore"
	"repro/internal/scenario"
	"repro/internal/schemes"
	"repro/internal/telemetry"
	"repro/internal/walker"
)

// TestServedWiFiDistancesOncePerEpoch checks that the served path
// builds the WiFi distance column once per epoch: a pipe client walks a
// campus path against sessions built by scenario.Assets.SchemesOver
// over shared stores, and the WiFi store's distances lookup counter
// must rise by exactly one on every epoch whose scan can be matched
// (the WiFi scheme's column; fusion takes its deviation feature from
// it) and not at all on the others.
func TestServedWiFiDistancesOncePerEpoch(t *testing.T) {
	place := scenario.Campus()
	assets := scenario.NewAssets(place, 3)
	reg := telemetry.NewRegistry()
	newStore := func(name string, db *fingerprint.DB) *mapstore.Store {
		st := mapstore.New(db, mapstore.Config{Name: name, RebuildBatch: 1 << 30, Metrics: mapstore.NewMetrics(reg, name)})
		t.Cleanup(st.Close)
		return st
	}
	stores := map[byte]*mapstore.Store{
		MapWiFi:     newStore("wifi", assets.WiFiDB),
		MapCellular: newStore("cellular", assets.CellDB),
	}
	models := core.NewModelSet()
	factory := func() (*core.Framework, error) {
		ss := assets.SchemesOver(stores[MapWiFi], stores[MapCellular], rand.New(rand.NewSource(7)))
		return core.NewFramework(ss, models)
	}
	srv := newTestServer(t, ServerConfig{Factory: factory, MapStores: stores, SharedCompute: true})
	client := pipeClient(t, srv)

	path, _ := place.PathByName("path1")
	wk := walker.New(place.World, path.Line, assets.DefaultWalkerConfig(), rand.New(rand.NewSource(11)))
	start, _ := path.Line.At(0)
	if err := client.Hello(start); err != nil {
		t.Fatal(err)
	}
	lookups := func() float64 {
		v, ok := reg.Snapshot().Get("uniloc_mapstore_lookups_total", "map", "wifi", "op", "distances")
		if !ok {
			t.Fatal("no wifi distances lookup counter")
		}
		return v
	}
	matched := 0
	for epoch := 0; !wk.Done(); epoch++ {
		snap, _ := wk.Next(true)
		before := lookups()
		if _, err := client.Localize(snap); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		want := 0.0
		if len(snap.WiFi) >= schemes.MinAPsForFix {
			want = 1
			matched++
		}
		if got := lookups() - before; got != want {
			t.Fatalf("epoch %d (%d APs heard): %v distance lookups on the wifi store, want %v", epoch, len(snap.WiFi), got, want)
		}
	}
	t.Logf("%d epochs, each one wifi distance lookup", matched)
	if matched < 100 {
		t.Fatalf("only %d epochs with a matchable WiFi scan", matched)
	}
}
