package geo_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/scenario"
)

// containsRef is Polygon.Contains as it was before the bounding-box
// prefilter: the per-edge boundary test first, then the ray test. The
// differential test below holds the fast version to it bit for bit.
func containsRef(pg geo.Polygon, p geo.Point) bool {
	n := len(pg.Vertices)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		s := geo.Segment{A: pg.Vertices[i], B: pg.Vertices[(i+1)%n]}
		if s.DistTo(p) < 1e-9 {
			return true
		}
	}
	inside := false
	j := n - 1
	for i := 0; i < n; i++ {
		vi, vj := pg.Vertices[i], pg.Vertices[j]
		if (vi.Y > p.Y) != (vj.Y > p.Y) {
			xCross := (vj.X-vi.X)*(p.Y-vi.Y)/(vj.Y-vi.Y) + vi.X
			if p.X < xCross {
				inside = !inside
			}
		}
		j = i
	}
	return inside
}

// starPoly returns a random star-shaped polygon (concave for most
// draws) of n vertices around c with radii in [r/4, r].
func starPoly(rng *rand.Rand, c geo.Point, r float64, n int) geo.Polygon {
	vs := make([]geo.Point, n)
	for i := range vs {
		a := 2 * math.Pi * (float64(i) + rng.Float64()*0.8) / float64(n)
		rad := r * (0.25 + 0.75*rng.Float64())
		vs[i] = geo.Pt(c.X+rad*math.Cos(a), c.Y+rad*math.Sin(a))
	}
	return geo.Polygon{Vertices: vs}
}

// probePoints returns the points the differential test checks against
// pg: uniform points over the padded box, every vertex, points on
// every edge, points 1e-12…1e-5 m off every edge on both sides, and
// points straddling the prefilter's pad around the box corners.
func probePoints(rng *rand.Rand, pg geo.Polygon, random int) []geo.Point {
	b := pg.Bounds()
	w, h := b.Max.X-b.Min.X, b.Max.Y-b.Min.Y
	var pts []geo.Point
	for i := 0; i < random; i++ {
		pts = append(pts, geo.Pt(b.Min.X-0.2*w+1.4*w*rng.Float64(), b.Min.Y-0.2*h+1.4*h*rng.Float64()))
	}
	n := len(pg.Vertices)
	for i, a := range pg.Vertices {
		bv := pg.Vertices[(i+1)%n]
		pts = append(pts, a)
		d := bv.Sub(a)
		l := d.Norm()
		if l == 0 {
			continue
		}
		nrm := geo.Pt(-d.Y/l, d.X/l)
		for k := 0; k < 4; k++ {
			on := geo.Lerp(a, bv, rng.Float64())
			pts = append(pts, on)
			for e := -12; e <= -5; e++ {
				off := math.Pow(10, float64(e)) * (0.5 + rng.Float64())
				pts = append(pts, on.Add(nrm.Scale(off)), on.Sub(nrm.Scale(off)))
			}
		}
	}
	const pad = 1e-6
	for _, dx := range []float64{-pad * 1.01, -pad * 0.99, 0, pad * 0.99, pad * 1.01} {
		for _, c := range []geo.Point{b.Min, b.Max, geo.Pt(b.Min.X, b.Max.Y), geo.Pt(b.Max.X, b.Min.Y)} {
			pts = append(pts, geo.Pt(c.X+dx, c.Y), geo.Pt(c.X, c.Y+dx), geo.Pt(c.X+dx, c.Y+dx))
		}
	}
	return pts
}

func TestContainsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var polys []geo.Polygon
	for _, mk := range []func() *scenario.Place{
		scenario.Campus, scenario.Mall, scenario.UrbanOpenSpace,
		scenario.TrainingOffice, scenario.TrainingOpenSpace,
	} {
		w := mk().World
		for _, r := range w.Regions {
			polys = append(polys, r.Poly)
		}
		for _, z := range w.Zones {
			polys = append(polys, z.Poly)
		}
	}
	polys = append(polys,
		geo.RectPoly(0, 0, 10, 5),
		geo.Poly(geo.Pt(0, 0), geo.Pt(4, 0), geo.Pt(4, 2), geo.Pt(2, 2), geo.Pt(2, 4), geo.Pt(0, 4)),
		geo.Poly(geo.Pt(0, 0), geo.Pt(1e-5, 0), geo.Pt(0, 1e-5)),
	)
	for i := 0; i < 300; i++ {
		c := geo.Pt(rng.NormFloat64()*1e3, rng.NormFloat64()*1e3)
		r := math.Pow(10, -4+7*rng.Float64())
		polys = append(polys, starPoly(rng, c, r, 3+rng.Intn(30)))
	}

	checked, inside := 0, 0
	for _, pg := range polys {
		for _, p := range probePoints(rng, pg, 2000) {
			got, want := pg.Contains(p), containsRef(pg, p)
			if got != want {
				t.Fatalf("Contains(%v) over %v = %v, reference %v", p, pg.Vertices, got, want)
			}
			checked++
			if got {
				inside++
			}
		}
	}
	t.Logf("%d points over %d polygons, %d inside", checked, len(polys), inside)
	if checked < 1_000_000 {
		t.Fatalf("checked only %d points", checked)
	}
	// Both answers must be well represented, or the test proves little.
	if inside < checked/10 || inside > checked*9/10 {
		t.Fatalf("%d of %d points inside: probe mix is lopsided", inside, checked)
	}
}

func TestContainsSpecialValues(t *testing.T) {
	pgs := []geo.Polygon{
		geo.RectPoly(0, 0, 10, 5),
		geo.Poly(geo.Pt(0, 0), geo.Pt(math.NaN(), 1), geo.Pt(1, 1)),
		geo.Poly(geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(math.Inf(1), 1), geo.Pt(0, 1)),
		geo.Poly(geo.Pt(math.Inf(-1), 0), geo.Pt(1, 0), geo.Pt(1, 1)),
	}
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 0.5, -1e-7, 3}
	for _, pg := range pgs {
		for _, x := range vals {
			for _, y := range vals {
				p := geo.Pt(x, y)
				if got, want := pg.Contains(p), containsRef(pg, p); got != want {
					t.Errorf("Contains(%v) over %v = %v, reference %v", p, pg.Vertices, got, want)
				}
			}
		}
	}
}
