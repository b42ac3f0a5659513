package hmm_test

import (
	"math/rand"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/hmm"
	"repro/internal/mapstore"
	"repro/internal/scenario"
	"repro/internal/walker"
)

// BenchmarkTrackerUpdate times one tracker update over the campus WiFi
// map's positions, cycling through the RSSI distances of a tracked walk
// along campus path 1. "shared" is a serving session's tracker, which
// takes the map snapshot's kernel; "private" is a tracker over a plain
// database (training), which builds its own; "fresh" is a churn
// session's, a new shared-kernel tracker every 4 updates, whose belief
// never concentrates.
func BenchmarkTrackerUpdate(b *testing.B) {
	place := scenario.Campus()
	assets := scenario.NewAssets(place, 3)
	store := mapstore.New(assets.WiFiDB, mapstore.Config{Name: "wifi"})
	defer store.Close()
	view := store.Snapshot()
	path := place.Paths[0].Line
	wk := walker.New(place.World, path, walker.DefaultConfig(), rand.New(rand.NewSource(5)))
	var scans [][]float64
	for !wk.Done() {
		snap, _ := wk.Next(true)
		if len(snap.WiFi) > 0 {
			scans = append(scans, fingerprint.AppendDistances(view, nil, snap.WiFi))
		}
	}
	run := func(b *testing.B, tr *hmm.Tracker) {
		tr.Update(scans[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Update(scans[(i+1)%len(scans)])
		}
	}
	b.Run("shared", func(b *testing.B) {
		tr := hmm.NewShared(view.Positions())
		tr.ShareKernel(view)
		run(b, tr)
	})
	b.Run("private", func(b *testing.B) {
		run(b, hmm.New(view.Positions()))
	})
	b.Run("fresh", func(b *testing.B) {
		positions := view.Positions()
		var tr *hmm.Tracker
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%4 == 0 {
				tr = hmm.NewShared(positions)
				tr.ShareKernel(view)
			}
			tr.Update(scans[i%len(scans)])
		}
	})
}
