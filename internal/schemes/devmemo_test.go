package schemes_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/rf"
	"repro/internal/scenario"
	"repro/internal/schemes"
	"repro/internal/sensing"
	"repro/internal/walker"
)

// Positions of the WiFi and fusion schemes in scenario.Assets'
// canonical scheme order.
const (
	wifiIdx   = 1
	fusionIdx = 4
)

// sameEstimate fails unless got and want agree on availability and on
// the bits of the position and of every feature.
func sameEstimate(t *testing.T, where string, got, want schemes.Estimate) {
	t.Helper()
	if got.OK != want.OK || math.Float64bits(got.Pos.X) != math.Float64bits(want.Pos.X) ||
		math.Float64bits(got.Pos.Y) != math.Float64bits(want.Pos.Y) || len(got.Features) != len(want.Features) {
		t.Fatalf("%s: estimate %+v, private %+v", where, got, want)
	}
	for k, v := range want.Features {
		if g, ok := got.Features[k]; !ok || math.Float64bits(g) != math.Float64bits(v) {
			t.Fatalf("%s: feature %s = %v, private %v", where, k, g, v)
		}
	}
}

// sameBelief fails unless two fingerprinting schemes' tracker beliefs
// are bit-equal.
func sameBelief(t *testing.T, where string, got, want *schemes.Fingerprinting) {
	t.Helper()
	g, w := exportedBelief(t, got), exportedBelief(t, want)
	if len(g) != len(w) {
		t.Fatalf("%s: belief over %d states, private %d", where, len(g), len(w))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: belief[%d] = %v, private %v", where, i, g[i], w[i])
		}
	}
}

// devWalk configures one walk of the deviation-memo oracle.
type devWalk struct {
	store  bool // a shared mapstore, swapped mid-walk, instead of the private database
	hetero bool // the heterogeneous device, with a calibrator on both fingerprinting schemes
}

// Epochs of a walk at which the oracle acts.
const (
	swapBetweenEpochs = 40 // compaction before the epoch's schemes run
	migrateEpoch      = 60 // linked schemes move into fresh ones
	swapInsideEpoch   = 80 // compaction between WiFi's and fusion's View
)

// TestFusionDevMemoMatchesPrivate holds the schemes that
// scenario.Assets.SchemesOver links through the shared RSSI deviation
// memo to the same schemes unlinked, which compute every deviation
// privately: along every campus path, each scheme's position and
// features and the WiFi tracker's belief must be Float64bits-equal
// after every epoch. The cases cover a mapstore swap between epochs
// and one injected between WiFi's and fusion's View in one epoch, a
// migration into fresh schemes, a private database, and the
// heterogeneous device with calibrators (WiFi's calibrated scan is not
// fusion's).
func TestFusionDevMemoMatchesPrivate(t *testing.T) {
	place := scenario.Campus()
	assets := scenario.NewAssets(place, 3)
	cases := []struct {
		name string
		cfg  devWalk
	}{
		{"store-swaps", devWalk{store: true}},
		{"private-db", devWalk{}},
		{"heterodev", devWalk{store: true, hetero: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hits, misses int
			for i, path := range place.Paths {
				h, m := tc.cfg.run(t, assets, path, int64(i))
				hits, misses = hits+h, misses+m
			}
			t.Logf("fusion deviation: %d memo hits, %d misses", hits, misses)
			switch {
			case tc.cfg.hetero:
				// Hits before the calibrator is ready, misses after.
				if hits == 0 || misses < hits {
					t.Fatalf("%d misses, %d hits: want both, calibrated scans mostly missing", misses, hits)
				}
			case hits < 1000:
				t.Fatalf("only %d memo hits: the linked walk barely shares", hits)
			case tc.cfg.store && misses < len(place.Paths)-1:
				t.Fatalf("%d misses: the swaps inside an epoch did not miss", misses)
			}
		})
	}
}

// run walks one path with linked and unlinked schemes side by side and
// returns how many fusion deviations the memo served and how many it
// did not.
func (c devWalk) run(t *testing.T, a *scenario.Assets, path scenario.Path, seed int64) (hits, misses int) {
	t.Helper()
	var wifiMap fingerprint.Map = a.WiFiDB
	var store *mapstore.Store
	if c.store {
		store = mapstore.New(a.WiFiDB, mapstore.Config{Name: "wifi", RebuildBatch: 1 << 30})
		defer store.Close()
		wifiMap = store
	}
	build := func(seed int64, link bool) []schemes.Scheme {
		ss := a.SchemesOver(wifiMap, a.CellDB, rand.New(rand.NewSource(seed)))
		if !link {
			schemes.UnshareRSSIDev(ss)
		}
		if c.hetero {
			for _, s := range ss {
				if fp, ok := s.(*schemes.Fingerprinting); ok {
					fp.SetCalibrator(schemes.NewCalibrator())
				}
			}
		}
		return ss
	}
	linked, private := build(seed, true), build(seed, false)
	wcfg := a.DefaultWalkerConfig()
	if c.hetero {
		wcfg = a.HeterogeneousWalkerConfig()
	}
	wk := walker.New(a.Place.World, path.Line, wcfg, rand.New(rand.NewSource(seed+100)))
	start, _ := path.Line.At(0)
	// survey compacts new fingerprints along the walk into the store:
	// the next View pins a new snapshot.
	survey := func(at geo.Point, obs rf.Vector) {
		for k := 0; k < 4; k++ {
			p := at.Add(geo.Pt(0.9*float64(k), 0.6))
			if err := store.Submit(fingerprint.Fingerprint{Pos: p, Vec: obs}); err != nil {
				t.Fatal(err)
			}
		}
		store.Rebuild()
	}

	for _, s := range append(linked[:len(linked):len(linked)], private...) {
		s.Reset(start)
	}
	for epoch := 0; !wk.Done(); epoch++ {
		snap, truth := wk.Next(true)
		if store != nil && epoch == swapBetweenEpochs && len(snap.WiFi) >= 2 {
			survey(truth, snap.WiFi)
		}
		if epoch == migrateEpoch && !c.hetero { // calibrators do not migrate
			fresh := build(seed+1000, true)
			for i, s := range linked {
				fresh[i].Reset(start)
				if sc, ok := s.(schemes.StateCodec); ok {
					blob, err := sc.AppendState(nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := fresh[i].(schemes.StateCodec).RestoreState(blob); err != nil {
						t.Fatal(err)
					}
				}
			}
			linked = fresh
		}
		for i := range linked {
			where := path.Name + " " + linked[i].Name()
			if i == fusionIdx {
				if store != nil && epoch == swapInsideEpoch && len(snap.WiFi) >= 2 {
					survey(truth, snap.WiFi)
				}
				if len(snap.WiFi) >= schemes.MinAPsForFix {
					if schemes.DevMemoHolds(linked[i].(*schemes.Fusion), wifiMap.View(), snap.WiFi) {
						hits++
					} else {
						misses++
					}
				}
			}
			sameEstimate(t, where, linked[i].Estimate(snap), private[i].Estimate(snap))
		}
		sameBelief(t, path.Name, linked[wifiIdx].(*schemes.Fingerprinting), private[wifiIdx].(*schemes.Fingerprinting))
	}
	return hits, misses
}

// TestFusionDevMemoAllocs checks that sharing the deviation costs no
// allocation: in steady state, WiFi and fusion Estimate linked through
// the memo allocate no more per epoch than the same schemes unlinked.
func TestFusionDevMemoAllocs(t *testing.T) {
	place := scenario.Campus()
	assets := scenario.NewAssets(place, 3)
	store := mapstore.New(assets.WiFiDB, mapstore.Config{Name: "wifi", RebuildBatch: 1 << 30})
	defer store.Close()
	path := place.Paths[0].Line
	wk := walker.New(place.World, path, walker.DefaultConfig(), rand.New(rand.NewSource(5)))
	var snaps []*sensing.Snapshot
	for !wk.Done() && len(snaps) < 300 {
		snap, _ := wk.Next(true)
		snaps = append(snaps, snap)
	}
	start, _ := path.At(0)
	measure := func(link bool) float64 {
		ss := assets.SchemesOver(store, assets.CellDB, rand.New(rand.NewSource(1)))
		if !link {
			schemes.UnshareRSSIDev(ss)
		}
		wifi, fusion := ss[wifiIdx], ss[fusionIdx]
		wifi.Reset(start)
		fusion.Reset(start)
		for _, snap := range snaps[:100] {
			wifi.Estimate(snap)
			fusion.Estimate(snap)
		}
		i := 100
		return testing.AllocsPerRun(150, func() {
			wifi.Estimate(snaps[i])
			fusion.Estimate(snaps[i])
			i++
		})
	}
	linked, private := measure(true), measure(false)
	t.Logf("wifi + fusion Estimate: %v allocs per epoch linked, %v unlinked", linked, private)
	if linked > private {
		t.Errorf("linked wifi + fusion allocate %v objects per epoch, unlinked %v", linked, private)
	}
}
