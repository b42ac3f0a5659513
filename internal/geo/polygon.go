package geo

import "math"

// Polygon is a simple polygon described by its vertices in order. The
// polygon is implicitly closed (the last vertex connects back to the
// first). The zero value is an empty polygon containing no points.
type Polygon struct {
	Vertices []Point
}

// Poly constructs a polygon from the given vertices.
func Poly(vs ...Point) Polygon { return Polygon{Vertices: vs} }

// RectPoly returns the rectangle [x0,x1]×[y0,y1] as a polygon.
func RectPoly(x0, y0, x1, y1 float64) Polygon {
	return Poly(Pt(x0, y0), Pt(x1, y0), Pt(x1, y1), Pt(x0, y1))
}

// containsPad is how far outside its bounding box Contains rejects a
// point without looking at edges. It must exceed the 1e-9 boundary
// tolerance plus the rounding of ClosestPoint and of the ray test's
// crossing abscissa, a few ulps of the coordinates: 1e-6 leaves that
// slack for any coordinate below about 1e8 m.
const containsPad = 1e-6

// Contains reports whether p lies inside the polygon (boundary points
// count as inside, within 1e-9), using the ray-crossing rule. It is
// Boxed().Contains(p): the bounding box is rebuilt per call (a few
// compares per vertex) rather than cached, because polygons are plain
// values whose vertices callers may edit. A caller testing many points
// against one unchanging polygon builds the Boxed once instead.
func (pg Polygon) Contains(p Point) bool {
	b := pg.Boxed()
	return b.Contains(p)
}

// Boxed is a polygon with the vertex bounding box its Contains and
// Excludes reject on, computed once by Polygon.Boxed. It holds the
// polygon's vertex slice, not a copy: an edit to the vertices after
// Boxed leaves the box stale, so build a new Boxed after editing.
type Boxed struct {
	Poly                   Polygon
	minX, maxX, minY, maxY float64
	// finite is false with fewer than 3 vertices, or with a NaN or
	// infinite vertex (builtin min/max carry a NaN into the box).
	finite bool
}

// Boxed returns the polygon with its vertex bounding box.
func (pg Polygon) Boxed() Boxed {
	b := Boxed{Poly: pg}
	if len(pg.Vertices) < 3 {
		return b
	}
	v0 := pg.Vertices[0]
	b.minX, b.maxX, b.minY, b.maxY = v0.X, v0.X, v0.Y, v0.Y
	for _, v := range pg.Vertices[1:] {
		b.minX, b.maxX = min(b.minX, v.X), max(b.maxX, v.X)
		b.minY, b.maxY = min(b.minY, v.Y), max(b.maxY, v.Y)
	}
	b.finite = b.maxX-b.minX+b.maxY-b.minY < math.Inf(1)
	return b
}

// Contains reports whether p lies inside the polygon (boundary points
// count as inside, within 1e-9), using the ray-crossing rule.
//
// The answer is boundary || ray, evaluated cheapest first, and is the
// same bool for every input as evaluating the boundary test first:
//   - Outside the bounding box padded by containsPad, both tests are
//     false. No edge is within 1e-9 of p: the closest point of an edge
//     lies in the box, up to rounding, and a computed Hypot is never
//     below its larger leg. Nor is the crossing count odd: beyond the
//     box in y no edge spans p.Y; beyond it in x every crossing lies on
//     one side of p, so either none counts or all do, and a closed
//     polygon has an even number of edges spanning any horizontal line.
//   - Inside the box the ray test runs next, and the per-edge distance
//     test only when it says outside.
//
// A polygon with a NaN or infinite vertex, where the parity argument
// fails, has no finite box and takes the full tests.
func (b *Boxed) Contains(p Point) bool {
	vs := b.Poly.Vertices
	n := len(vs)
	if n < 3 {
		return false
	}
	if b.finite && (p.X < b.minX-containsPad || p.X > b.maxX+containsPad ||
		p.Y < b.minY-containsPad || p.Y > b.maxY+containsPad) {
		return false
	}
	inside := false
	j := n - 1
	for i := 0; i < n; i++ {
		vi, vj := vs[i], vs[j]
		if (vi.Y > p.Y) != (vj.Y > p.Y) {
			xCross := (vj.X-vi.X)*(p.Y-vi.Y)/(vj.Y-vi.Y) + vi.X
			if p.X < xCross {
				inside = !inside
			}
		}
		j = i
	}
	if inside {
		return true
	}
	for i := 0; i < n; i++ {
		s := Segment{vs[i], vs[(i+1)%n]}
		if s.DistTo(p) < 1e-9 {
			return true
		}
	}
	return false
}

// Excludes reports that Contains is false at every point of box, which
// it is when the box lies wholly beyond the padded bounding box
// Contains rejects on: every point of the box then fails the same
// comparison, on the same computed bound, that Contains makes first.
// A false answer promises nothing. A box with a NaN bound is never
// excluded (a NaN comparison is false), and a polygon with a NaN or
// infinite vertex excludes nothing, as it has no finite box.
func (b *Boxed) Excludes(box Rect) bool {
	if len(b.Poly.Vertices) < 3 {
		return true
	}
	return b.finite && (box.Max.X < b.minX-containsPad || box.Min.X > b.maxX+containsPad ||
		box.Max.Y < b.minY-containsPad || box.Min.Y > b.maxY+containsPad)
}

// Area returns the unsigned area of the polygon.
func (pg Polygon) Area() float64 {
	n := len(pg.Vertices)
	if n < 3 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		a, b := pg.Vertices[i], pg.Vertices[(i+1)%n]
		sum += a.Cross(b)
	}
	return math.Abs(sum) / 2
}

// Centroid returns the centroid of the polygon. An empty polygon yields
// the origin.
func (pg Polygon) Centroid() Point {
	n := len(pg.Vertices)
	if n == 0 {
		return Point{}
	}
	if n < 3 {
		var c Point
		for _, v := range pg.Vertices {
			c = c.Add(v)
		}
		return c.Scale(1 / float64(n))
	}
	var cx, cy, a float64
	for i := 0; i < n; i++ {
		p, q := pg.Vertices[i], pg.Vertices[(i+1)%n]
		cr := p.Cross(q)
		cx += (p.X + q.X) * cr
		cy += (p.Y + q.Y) * cr
		a += cr
	}
	if a == 0 {
		return pg.Vertices[0]
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}

// Bounds returns the axis-aligned bounding rectangle of the polygon.
func (pg Polygon) Bounds() Rect {
	if len(pg.Vertices) == 0 {
		return Rect{}
	}
	r := Rect{Min: pg.Vertices[0], Max: pg.Vertices[0]}
	for _, v := range pg.Vertices[1:] {
		r.Min.X = math.Min(r.Min.X, v.X)
		r.Min.Y = math.Min(r.Min.Y, v.Y)
		r.Max.X = math.Max(r.Max.X, v.X)
		r.Max.Y = math.Max(r.Max.Y, v.Y)
	}
	return r
}

// Edges returns the polygon's edges as segments.
func (pg Polygon) Edges() []Segment {
	n := len(pg.Vertices)
	if n < 2 {
		return nil
	}
	segs := make([]Segment, 0, n)
	for i := 0; i < n; i++ {
		segs = append(segs, Segment{pg.Vertices[i], pg.Vertices[(i+1)%n]})
	}
	return segs
}

// DistToBoundary returns the distance from p to the polygon's boundary.
// For an empty polygon it returns +Inf.
func (pg Polygon) DistToBoundary(p Point) float64 {
	d := math.Inf(1)
	for _, e := range pg.Edges() {
		d = math.Min(d, e.DistTo(p))
	}
	return d
}

// Polyline is an open chain of points, used for walking paths.
type Polyline struct {
	Points []Point
}

// Line constructs a polyline from the given points.
func Line(pts ...Point) Polyline { return Polyline{Points: pts} }

// Length returns the total length of the polyline.
func (pl Polyline) Length() float64 {
	var total float64
	for i := 1; i < len(pl.Points); i++ {
		total += pl.Points[i-1].Dist(pl.Points[i])
	}
	return total
}

// At returns the point at arc-length distance d from the start of the
// polyline, clamped to its endpoints, together with the heading of the
// segment containing that point.
func (pl Polyline) At(d float64) (Point, float64) {
	if len(pl.Points) == 0 {
		return Point{}, 0
	}
	if len(pl.Points) == 1 {
		return pl.Points[0], 0
	}
	if d <= 0 {
		h := pl.Points[1].Sub(pl.Points[0]).Heading()
		return pl.Points[0], h
	}
	remaining := d
	for i := 1; i < len(pl.Points); i++ {
		seg := Segment{pl.Points[i-1], pl.Points[i]}
		l := seg.Length()
		if remaining <= l || i == len(pl.Points)-1 && remaining <= l+1e-9 {
			t := 0.0
			if l > 0 {
				t = remaining / l
				if t > 1 {
					t = 1
				}
			}
			return seg.At(t), seg.B.Sub(seg.A).Heading()
		}
		remaining -= l
	}
	last := Segment{pl.Points[len(pl.Points)-2], pl.Points[len(pl.Points)-1]}
	return last.B, last.B.Sub(last.A).Heading()
}

// Vertices returns the cumulative arc-length at every vertex of the
// polyline (the first entry is always 0).
func (pl Polyline) Vertices() []float64 {
	if len(pl.Points) == 0 {
		return nil
	}
	out := make([]float64, len(pl.Points))
	for i := 1; i < len(pl.Points); i++ {
		out[i] = out[i-1] + pl.Points[i-1].Dist(pl.Points[i])
	}
	return out
}
