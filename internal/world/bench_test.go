package world_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/scenario"
	"repro/internal/world"
)

var blockedSink int

// BenchmarkWorldBlocksMotion measures the particle filters' map
// constraint on the campus, per move: 64 clouds of 300 particles,
// each spread 1–2.5 m around a point of a campus path and stepping
// ~0.7 m in a shared heading with per-particle noise, as PDR and
// fusion propagate every epoch. "constraint" builds a
// world.Constraint over each cloud's box and checks every move
// against it; "reference" checks every move against the whole world.
func BenchmarkWorldBlocksMotion(b *testing.B) {
	place := scenario.Campus()
	w := place.World
	rnd := rand.New(rand.NewSource(1))
	clouds := make([][]move, 64)
	for k := range clouds {
		path := place.Paths[k%len(place.Paths)].Line
		c, _ := path.At(rnd.Float64() * path.Length())
		sigma := 1 + 1.5*rnd.Float64()
		heading := rnd.Float64() * 2 * math.Pi
		ms := make([]move, 300)
		for i := range ms {
			a := c
			a.X += rnd.NormFloat64() * sigma
			a.Y += rnd.NormFloat64() * sigma
			h := heading + 0.08*rnd.NormFloat64()
			l := 0.7 * (1 + 0.1*rnd.NormFloat64())
			a2 := a
			a2.X += l * math.Cos(h)
			a2.Y += l * math.Sin(h)
			ms[i] = move{a, a2}
		}
		clouds[k] = ms
	}
	perMove := func(b *testing.B, run func(ms []move) int) {
		b.ReportAllocs()
		blocked := 0
		for i := 0; i < b.N; i++ {
			blocked += run(clouds[i%len(clouds)])
		}
		blockedSink = blocked
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*300), "ns/move")
	}
	b.Run("constraint", func(b *testing.B) {
		var near world.Constraint
		perMove(b, func(ms []move) int {
			near.Near(w, cloudBox(ms))
			n := 0
			for _, m := range ms {
				if near.Blocks(m.a, m.b) {
					n++
				}
			}
			return n
		})
	})
	b.Run("reference", func(b *testing.B) {
		perMove(b, func(ms []move) int {
			n := 0
			for _, m := range ms {
				if w.BlocksMotion(m.a, m.b) {
					n++
				}
			}
			return n
		})
	})
}
