package world_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/scenario"
	"repro/internal/world"
)

type move struct{ a, b geo.Point }

// cloudBox is the box particle.Filter.Propose returns for these moves:
// the running builtin min/max over every start and end, so a NaN
// coordinate makes that axis NaN.
func cloudBox(ms []move) geo.Rect {
	box := geo.Rect{Min: ms[0].a, Max: ms[0].a}
	for _, m := range ms {
		box.Min.X, box.Max.X = min(box.Min.X, m.a.X, m.b.X), max(box.Max.X, m.a.X, m.b.X)
		box.Min.Y, box.Max.Y = min(box.Min.Y, m.a.Y, m.b.Y), max(box.Max.Y, m.a.Y, m.b.Y)
	}
	return box
}

// obliqueWorld is a synthetic world that no scenario place has: star
// and rectangular regions (one with an infinite vertex), and oblique,
// axis-parallel, zero-length and far-away walls.
func obliqueWorld(rng *rand.Rand) *world.World {
	w := &world.World{Name: "oblique"}
	for i := 0; i < 12; i++ {
		c := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		r := 2 + rng.Float64()*15
		vs := make([]geo.Point, 3+rng.Intn(9))
		for k := range vs {
			a := 2 * math.Pi * (float64(k) + rng.Float64()*0.8) / float64(len(vs))
			rad := r * (0.3 + 0.7*rng.Float64())
			vs[k] = geo.Pt(c.X+rad*math.Cos(a), c.Y+rad*math.Sin(a))
		}
		w.Regions = append(w.Regions, world.Region{Name: "star", Poly: geo.Polygon{Vertices: vs}})
	}
	w.Regions = append(w.Regions,
		world.Region{Name: "hall", Poly: geo.RectPoly(0, 40, 100, 48)},
		world.Region{Name: "inf", Poly: geo.Poly(geo.Pt(90, 0), geo.Pt(math.Inf(1), 0), geo.Pt(95, 5))},
		world.Region{Name: "sliver", Poly: geo.Poly(geo.Pt(50, 50), geo.Pt(50+1e-7, 50))},
	)
	wall := func(a, b geo.Point) { w.Walls = append(w.Walls, world.Wall{Seg: geo.Seg(a, b), AttenuationDB: 5}) }
	for i := 0; i < 30; i++ {
		a := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		wall(a, a.Add(geo.FromHeading(rng.Float64()*2*math.Pi).Scale(1+rng.Float64()*30)))
	}
	for i := 0; i < 10; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		wall(geo.Pt(x, y), geo.Pt(x+1+rng.Float64()*20, y))
		wall(geo.Pt(x, y), geo.Pt(x, y-1-rng.Float64()*20))
		p := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		wall(p, p) // zero length
	}
	wall(geo.Pt(0, 44), geo.Pt(100, 44))
	wall(geo.Pt(0, 40), geo.Pt(100, 48.5)) // nearly horizontal
	wall(geo.Pt(60, -1e6), geo.Pt(60, 1e6))
	wall(geo.Pt(-5, math.Inf(1)), geo.Pt(5, math.Inf(1)))
	wall(geo.Pt(math.Inf(-1), 20), geo.Pt(math.Inf(1), 20))
	return w
}

// cloudMoves returns one particle cloud's moves of a given kind around
// centre c with width width (m): random steps, steps snapped onto a
// wall's line, axis-parallel and collinear steps, steps with NaN and
// infinite coordinates, a cloud flush against one side of an
// axis-parallel wall's line, some endpoints exactly on it, or a cloud
// just outside one side of a region's bounding box, within 2e-9 m to
// 2e-6 m of it.
func cloudMoves(rng *rand.Rand, w *world.World, c geo.Point, width float64, kind int) []move {
	ms := make([]move, 300)
	if len(w.Walls) == 0 && kind != 3 && kind != 5 {
		kind = 0
	}
	var flush geo.Segment
	side := 1.0
	if kind == 4 {
		flush = w.Walls[rng.Intn(len(w.Walls))].Seg
		if rng.Intn(2) == 0 {
			side = -1
		}
	}
	var edge, off float64
	if kind == 5 {
		r := w.Regions[rng.Intn(len(w.Regions))].Poly.Bounds()
		side = float64(rng.Intn(4))
		edge = []float64{r.Min.X, r.Max.X, r.Min.Y, r.Max.Y}[int(side)]
		off = 2e-9 * math.Pow(1e3, rng.Float64())
		c = r.Center()
	}
	for i := range ms {
		a := geo.Pt(c.X+(rng.Float64()-0.5)*width, c.Y+(rng.Float64()-0.5)*width)
		l := 0.7 * (1 + 0.3*rng.NormFloat64())
		switch rng.Intn(20) {
		case 0:
			l *= 10 * rng.Float64()
		case 1, 2, 3:
			l = width * rng.Float64() // moves as small as the cloud
		}
		b := a.Add(geo.FromHeading(rng.Float64() * 2 * math.Pi).Scale(l))
		switch kind {
		case 1: // an endpoint snapped exactly onto a wall's line
			s := w.Walls[rng.Intn(len(w.Walls))].Seg
			on := s.At(rng.Float64()*1.4 - 0.2)
			if s.A.Y == s.B.Y {
				on.Y = s.A.Y
			} else if s.A.X == s.B.X {
				on.X = s.A.X
			}
			if rng.Intn(2) == 0 {
				b = on
			} else {
				a = on
			}
		case 2: // axis-parallel, sometimes along a wall's own line
			if rng.Intn(2) == 0 {
				b.Y = a.Y
			} else {
				b.X = a.X
			}
			if rng.Intn(4) == 0 {
				s := w.Walls[rng.Intn(len(w.Walls))].Seg
				switch {
				case s.A.Y == s.B.Y:
					a.Y, b.Y = s.A.Y, s.A.Y
				case s.A.X == s.B.X:
					a.X, b.X = s.A.X, s.A.X
				}
			}
		case 3: // special values
			if rng.Intn(30) == 0 {
				vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
				v := vals[rng.Intn(len(vals))]
				switch rng.Intn(4) {
				case 0:
					a.X = v
				case 1:
					a.Y = v
				case 2:
					b.X = v
				default:
					b.Y = v
				}
			}
		case 5: // just outside one side of a region's bounding box
			b := a
			switch side {
			case 0:
				a.X, b.X = edge-off*rng.Float64(), edge-off*rng.Float64()
			case 1:
				a.X, b.X = edge+off*rng.Float64(), edge+off*rng.Float64()
			case 2:
				a.Y, b.Y = edge-off*rng.Float64(), edge-off*rng.Float64()
			default:
				a.Y, b.Y = edge+off*rng.Float64(), edge+off*rng.Float64()
			}
			ms[i] = move{a, b}
			continue
		case 4: // flush against flush's line
			for _, p := range []*geo.Point{&a, &b} {
				switch {
				case flush.A.Y == flush.B.Y:
					p.Y = flush.A.Y + side*math.Abs(p.Y-flush.A.Y)
					if rng.Intn(3) == 0 {
						p.Y = flush.A.Y
					}
				case flush.A.X == flush.B.X:
					p.X = flush.A.X + side*math.Abs(p.X-flush.A.X)
					if rng.Intn(3) == 0 {
						p.X = flush.A.X
					}
				}
			}
		}
		if rng.Intn(50) == 0 {
			b = a // zero-length move
		}
		ms[i] = move{a, b}
	}
	return ms
}

// TestConstraintMatchesReference holds Constraint, built once per cloud
// from the cloud's box, to the whole-world BlocksMotion on every move:
// over 1e6 moves in every scenario place and a synthetic world with
// oblique and zero-length walls, clouds 1e-9 m to whole-map wide,
// centred at random or on wall lines, with endpoints on wall lines,
// axis-parallel and collinear moves, and NaN/±Inf coordinates. It then
// edits regions in place between two Near calls (checkEditedRegions).
func TestConstraintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	worlds := []*world.World{obliqueWorld(rng)}
	for _, mk := range []func() *scenario.Place{
		scenario.Campus, scenario.Mall, scenario.UrbanOpenSpace,
		scenario.TrainingOffice, scenario.TrainingOpenSpace,
	} {
		worlds = append(worlds, mk().World)
	}
	var near world.Constraint
	checked, blocked, crossed := 0, 0, 0
	for _, w := range worlds {
		bounds := w.Regions[0].Poly.Bounds()
		for _, r := range w.Regions[1:] {
			if b := r.Poly.Bounds(); !math.IsInf(b.Width()+b.Height(), 0) {
				bounds = bounds.Union(b)
			}
		}
		span := math.Max(bounds.Width(), bounds.Height())
		for cloud := 0; cloud < 600; cloud++ {
			var c geo.Point
			if cloud%3 == 0 && len(w.Walls) > 0 { // centred on a wall line
				s := w.Walls[rng.Intn(len(w.Walls))].Seg
				c = s.At(rng.Float64())
			} else {
				c = geo.Pt(bounds.Min.X+rng.Float64()*bounds.Width(), bounds.Min.Y+rng.Float64()*bounds.Height())
			}
			width := math.Pow(10, -9+(9+math.Log10(span))*rng.Float64())
			ms := cloudMoves(rng, w, c, width, cloud%6)
			near.Near(w, cloudBox(ms))
			for _, m := range ms {
				got, want := near.Blocks(m.a, m.b), w.BlocksMotion(m.a, m.b)
				if got != want {
					t.Fatalf("%s: move %v → %v in box %v: Blocks = %v, reference %v", w.Name, m.a, m.b, cloudBox(ms), got, want)
				}
				checked++
				if want {
					blocked++
				}
				if w.Walkable(m.b) && w.WallsCrossed(m.a, m.b) > 0 {
					crossed++
				}
			}
		}
	}
	t.Logf("%d moves: %d blocked, %d of them by a wall", checked, blocked, crossed)
	if checked < 1_000_000 {
		t.Fatalf("checked only %d moves", checked)
	}
	if blocked < checked/10 || blocked > checked*9/10 || crossed < checked/100 {
		t.Fatalf("%d of %d moves blocked, %d by a wall: the probe mix is lopsided", blocked, checked, crossed)
	}
	checkEditedRegions(t, rng, &near)
}

// checkEditedRegions moves each finite region of a synthetic world and
// of the campus in place, by shifting its vertices, between two Near
// calls over one box, and holds Blocks to BlocksMotion on both sides
// of the edit. Near keeps each region's vertex box for Blocks, so a box
// kept from before the edit would reject the points the region newly
// covers; the test requires moves that only the moved region admits.
func checkEditedRegions(t *testing.T, rng *rand.Rand, near *world.Constraint) {
	t.Helper()
	in := func(r geo.Rect) geo.Point {
		return geo.Pt(r.Min.X+rng.Float64()*r.Width(), r.Min.Y+rng.Float64()*r.Height())
	}
	revealing := 0
	for _, w := range []*world.World{obliqueWorld(rng), scenario.Campus().World} {
		for i := range w.Regions {
			pg := w.Regions[i].Poly
			old := pg.Bounds()
			if len(pg.Vertices) < 3 || math.IsInf(old.Width()+old.Height(), 0) {
				continue
			}
			shift := geo.Pt(0.75*old.Width(), 0.25*old.Height())
			area := old.Union(geo.Rect{Min: old.Min.Add(shift), Max: old.Max.Add(shift)})
			ms := make([]move, 200)
			for k := range ms {
				a := in(area)
				ms[k] = move{a, a.Add(geo.FromHeading(rng.Float64() * 2 * math.Pi).Scale(0.7))}
				if !area.Contains(ms[k].b) {
					ms[k].b = in(area)
				}
			}
			box := cloudBox(ms)
			for edit := 0; edit < 2; edit++ {
				if edit == 1 {
					for k := range pg.Vertices {
						pg.Vertices[k] = pg.Vertices[k].Add(shift)
					}
				}
				near.Near(w, box)
				for _, m := range ms {
					got, want := near.Blocks(m.a, m.b), w.BlocksMotion(m.a, m.b)
					if got != want {
						t.Fatalf("%s: region %d edited %d times: move %v → %v: Blocks = %v, reference %v", w.Name, i, edit, m.a, m.b, got, want)
					}
					if edit == 1 && !want && !old.Expand(1e-6).Contains(m.b) && onlyRegion(w, m.b) == i {
						revealing++
					}
				}
			}
		}
	}
	t.Logf("edited regions: %d moves admitted only by a region moved beyond its old box", revealing)
	if revealing < 100 {
		t.Fatalf("only %d moves depend on an edited region's new box", revealing)
	}
}

// onlyRegion returns the index of the one region of w containing p, or
// -1 when none or several do.
func onlyRegion(w *world.World, p geo.Point) int {
	found := -1
	for i := range w.Regions {
		if w.Regions[i].Poly.Contains(p) {
			if found >= 0 {
				return -1
			}
			found = i
		}
	}
	return found
}
