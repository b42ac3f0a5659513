package world_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/scenario"
)

var blockedSink int

// BenchmarkWorldBlocksMotion measures the particle filters' per-move
// map test on the campus: random ~0.7 m moves (one step) from walkable
// points, each checked for leaving the walkable area or crossing a
// wall. PDR and fusion run it for every particle every epoch.
func BenchmarkWorldBlocksMotion(b *testing.B) {
	w := scenario.Campus().World
	rnd := rand.New(rand.NewSource(1))
	bounds := w.Bounds()
	type move struct{ a, b geo.Point }
	moves := make([]move, 0, 4096)
	for len(moves) < cap(moves) {
		a := geo.Pt(bounds.Min.X+rnd.Float64()*(bounds.Max.X-bounds.Min.X), bounds.Min.Y+rnd.Float64()*(bounds.Max.Y-bounds.Min.Y))
		if !w.Walkable(a) {
			continue
		}
		h := rnd.Float64() * 2 * math.Pi
		l := 0.7 * (1 + 0.1*rnd.NormFloat64())
		moves = append(moves, move{a, a.Add(geo.Pt(l*math.Cos(h), l*math.Sin(h)))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	blocked := 0
	for i := 0; i < b.N; i++ {
		m := moves[i%len(moves)]
		if w.BlocksMotion(m.a, m.b) {
			blocked++
		}
	}
	blockedSink = blocked
}
