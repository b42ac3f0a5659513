// Package world models the physical environment a mobile user walks
// through: walkable regions with environment classes (office, corridor,
// basement, car park, open space, ...), walls that attenuate radio and
// constrain motion, localization landmarks (turns, doors, WiFi/structure
// signatures), WiFi access-point and cellular-tower sites, and the
// ambient light / magnetic / sky-visibility fields that the sensor
// simulators sample.
//
// The paper's experiments run on a real campus; this package is the
// simulated substitute (see DESIGN.md §2). Everything that implicitly
// influenced localization accuracy in the paper — AP density, wall
// materials, roof openness, corridor width — is an explicit property
// here, which is exactly the premise of UniLoc's error modeling: all
// influence factors take effect by changing sensor readings.
package world

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/noise"
)

// Kind enumerates the kinds of region appearing in the paper's
// deployments.
type Kind int

// Region kinds. Following the paper, every "roofed" kind maps to the
// indoor environment class for error modeling.
const (
	KindOffice Kind = iota + 1
	KindCorridor
	KindBasement
	KindCarPark
	KindOpenSpace
	KindMall
	KindWalkway // outdoor footpath between buildings
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindOffice:
		return "office"
	case KindCorridor:
		return "corridor"
	case KindBasement:
		return "basement"
	case KindCarPark:
		return "car park"
	case KindOpenSpace:
		return "open space"
	case KindMall:
		return "mall"
	case KindWalkway:
		return "walkway"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Roofed reports whether the region kind has a roof. Roofed regions are
// treated as indoor for error modeling (paper §III-A).
func (k Kind) Roofed() bool {
	switch k {
	case KindOpenSpace, KindWalkway:
		return false
	default:
		return true
	}
}

// Region is a walkable area with homogeneous environment properties.
type Region struct {
	Name          string
	Poly          geo.Polygon
	Kind          Kind
	CorridorWidth float64 // effective path width in meters (map-constraint looseness)
	SkyOpenness   float64 // fraction of sky visible in [0,1]; drives GNSS visibility
	LightLux      float64 // ambient daytime light level
	MagNoise      float64 // magnetic disturbance std-dev (µT) from steel structures
	RSSINoise     float64 // extra temporal RSSI noise (dB), e.g. crowded mall
}

// PenetrationZone is a volume with bulk RF penetration loss
// (underground floors, thick concrete). It is independent of walkable
// regions: a mall's shops belong to the zone even though users cannot
// walk there. The loss applies once per link whose endpoints lie in
// zones with different loss (|lossRx − lossTx|), so two devices on the
// same underground floor communicate unimpeded.
type PenetrationZone struct {
	Name   string
	Poly   geo.Polygon
	LossDB float64
}

// LandmarkKind enumerates the calibration landmark types the motion
// scheme detects (paper §II: turns, doors and WiFi/structure signatures).
type LandmarkKind int

// Landmark kinds.
const (
	LandmarkTurn LandmarkKind = iota + 1
	LandmarkDoor
	LandmarkSignature
)

// String implements fmt.Stringer.
func (k LandmarkKind) String() string {
	switch k {
	case LandmarkTurn:
		return "turn"
	case LandmarkDoor:
		return "door"
	case LandmarkSignature:
		return "signature"
	default:
		return fmt.Sprintf("landmark(%d)", int(k))
	}
}

// Landmark is a physical feature whose sensor signature lets PDR
// re-anchor its position belief.
type Landmark struct {
	ID     string
	Kind   LandmarkKind
	Pos    geo.Point
	Radius float64 // detection radius in meters
}

// Wall is a radio-attenuating, motion-blocking segment.
type Wall struct {
	Seg           geo.Segment
	AttenuationDB float64 // per-crossing RF loss
}

// Site is a WiFi access point or cellular tower.
type Site struct {
	ID         string
	Pos        geo.Point
	TxPowerDBm float64
}

// World is a complete simulated environment.
type World struct {
	Name      string
	Regions   []Region
	Walls     []Wall
	Landmarks []Landmark
	APs       []Site // WiFi access points
	Towers    []Site // cellular towers
	Zones     []PenetrationZone
	Proj      geo.Projection
	Noise     noise.Field // deterministic spatial noise (shadowing, sky, biases)
}

// Bounds returns the bounding rectangle of all regions. An empty world
// yields the zero rectangle.
func (w *World) Bounds() geo.Rect {
	if len(w.Regions) == 0 {
		return geo.Rect{}
	}
	r := w.Regions[0].Poly.Bounds()
	for _, reg := range w.Regions[1:] {
		r = r.Union(reg.Poly.Bounds())
	}
	return r
}

// RegionAt returns the region containing p, or nil if p is not
// walkable. When regions overlap, the first match wins, so builders
// should list more specific regions first.
func (w *World) RegionAt(p geo.Point) *Region {
	for i := range w.Regions {
		if w.Regions[i].Poly.Contains(p) {
			return &w.Regions[i]
		}
	}
	return nil
}

// Walkable reports whether p lies inside any region.
func (w *World) Walkable(p geo.Point) bool { return w.RegionAt(p) != nil }

// Indoor reports whether p is in a roofed region. Points outside all
// regions count as outdoor.
func (w *World) Indoor(p geo.Point) bool {
	r := w.RegionAt(p)
	return r != nil && r.Kind.Roofed()
}

// CorridorWidthAt returns the effective corridor width at p; points
// outside all regions return a large default (no constraint).
func (w *World) CorridorWidthAt(p geo.Point) float64 {
	if r := w.RegionAt(p); r != nil && r.CorridorWidth > 0 {
		return r.CorridorWidth
	}
	return 30
}

// SkyOpennessAt returns the fraction of visible sky at p; points outside
// all regions count as fully open.
func (w *World) SkyOpennessAt(p geo.Point) float64 {
	if r := w.RegionAt(p); r != nil {
		return r.SkyOpenness
	}
	return 1
}

// WallAttenuationDB sums the attenuation of every wall crossed by the
// segment a→b.
func (w *World) WallAttenuationDB(a, b geo.Point) float64 {
	seg := geo.Seg(a, b)
	var att float64
	for _, wall := range w.Walls {
		if seg.Intersects(wall.Seg) {
			att += wall.AttenuationDB
		}
	}
	return att
}

// PenetrationAt returns the bulk penetration loss class at p (0 for
// points outside all zones; the first containing zone wins).
func (w *World) PenetrationAt(p geo.Point) float64 {
	for i := range w.Zones {
		if w.Zones[i].Poly.Contains(p) {
			return w.Zones[i].LossDB
		}
	}
	return 0
}

// Constraint is the map constraint on motion: a move is blocked when
// it ends outside every walkable region or crosses a wall. Near
// restricts it to the regions and walls that can decide a move inside
// one box, so a particle filter that builds it once per propagate from
// its cloud tests each move against a few candidates instead of the
// whole world. The zero value is ready for Near; its lists are reused.
type Constraint struct {
	regions []geo.Boxed   // regions whose Contains may hold in the box, in world order, with their boxes
	walls   []geo.Segment // walls a move inside the box may cross, in world order
}

// Near sets c to w's constraint for moves whose endpoints both lie in
// box. Both exclusions are exact, so for every such move Blocks answers
// what testing against every region and wall of w answers:
//   - A region is dropped when geo.Boxed.Excludes the box: Contains
//     is then false at every point of it. A kept region keeps the
//     vertex box just built, so Blocks does not rebuild it per move;
//     it is rebuilt on every Near, so edits made to w between Near
//     calls are seen.
//   - A wall with A.Y == B.Y == c is dropped when c lies outside the
//     box's y-range: both ends of the move lie strictly on one side of
//     c, so geo.Segment.Intersects is false (DESIGN.md §18). Likewise
//     for A.X == B.X on x. Oblique walls are always kept.
//
// A NaN bound in box fails every comparison and drops nothing.
func (c *Constraint) Near(w *World, box geo.Rect) {
	c.regions = c.regions[:0]
	for i := range w.Regions {
		if pg := w.Regions[i].Poly.Boxed(); !pg.Excludes(box) {
			c.regions = append(c.regions, pg)
		}
	}
	c.walls = c.walls[:0]
	for _, wall := range w.Walls {
		a, b := wall.Seg.A, wall.Seg.B
		if a.Y == b.Y && (a.Y < box.Min.Y || a.Y > box.Max.Y) ||
			a.X == b.X && (a.X < box.Min.X || a.X > box.Max.X) {
			continue
		}
		c.walls = append(c.walls, wall.Seg)
	}
}

// Blocks reports whether moving from a to b crosses a wall or leaves
// the walkable area, i.e. whether the map constraint rejects the move.
// a and b must lie in the box of the last Near.
func (c *Constraint) Blocks(a, b geo.Point) bool {
	walkable := false
	for i := range c.regions {
		if c.regions[i].Contains(b) {
			walkable = true
			break
		}
	}
	if !walkable {
		return true
	}
	seg := geo.Seg(a, b)
	for _, wall := range c.walls {
		if seg.Intersects(wall) {
			return true
		}
	}
	return false
}

// LandmarkNear returns the first landmark whose detection radius covers
// p, or nil.
func (w *World) LandmarkNear(p geo.Point) *Landmark {
	for i := range w.Landmarks {
		lm := &w.Landmarks[i]
		if p.Dist(lm.Pos) <= lm.Radius {
			return lm
		}
	}
	return nil
}

// LightAt returns the ambient light level at p in lux. Unregioned points
// read as bright daylight.
func (w *World) LightAt(p geo.Point) float64 {
	if r := w.RegionAt(p); r != nil {
		return r.LightLux
	}
	return 10000
}

// MagNoiseAt returns the magnetic disturbance std-dev at p in µT.
// Unregioned (open) points have minimal disturbance.
func (w *World) MagNoiseAt(p geo.Point) float64 {
	if r := w.RegionAt(p); r != nil {
		return r.MagNoise
	}
	return 0.5
}

// RSSINoiseAt returns extra temporal RSSI noise at p in dB.
func (w *World) RSSINoiseAt(p geo.Point) float64 {
	if r := w.RegionAt(p); r != nil {
		return r.RSSINoise
	}
	return 0
}

// SkyBiasAt returns a deterministic per-location GNSS multipath bias
// vector (meters). It is a stable function of position so repeated
// visits to the same spot see the same bias, as real multipath does.
func (w *World) SkyBiasAt(p geo.Point, scale float64) geo.Point {
	cx := noise.QuantizeM(p.X, 8)
	cy := noise.QuantizeM(p.Y, 8)
	return geo.Pt(
		w.Noise.Gaussian(101, cx, cy)*scale,
		w.Noise.Gaussian(102, cx, cy)*scale,
	)
}

// Validate performs basic structural checks and returns an error
// describing the first problem found. Scenario builders call it in
// tests to catch malformed worlds early.
func (w *World) Validate() error {
	if len(w.Regions) == 0 {
		return fmt.Errorf("world %q has no regions", w.Name)
	}
	for i, r := range w.Regions {
		if len(r.Poly.Vertices) < 3 {
			return fmt.Errorf("region %d (%s) has %d vertices", i, r.Name, len(r.Poly.Vertices))
		}
		if r.SkyOpenness < 0 || r.SkyOpenness > 1 {
			return fmt.Errorf("region %s openness %f outside [0,1]", r.Name, r.SkyOpenness)
		}
		if r.Poly.Area() <= 0 {
			return fmt.Errorf("region %s has zero area", r.Name)
		}
	}
	seen := make(map[string]bool, len(w.APs)+len(w.Towers))
	for _, s := range w.APs {
		if seen[s.ID] {
			return fmt.Errorf("duplicate AP id %q", s.ID)
		}
		seen[s.ID] = true
	}
	for _, s := range w.Towers {
		if seen[s.ID] {
			return fmt.Errorf("duplicate tower id %q", s.ID)
		}
		seen[s.ID] = true
	}
	for _, lm := range w.Landmarks {
		if lm.Radius <= 0 {
			return fmt.Errorf("landmark %s has non-positive radius", lm.ID)
		}
		if math.IsNaN(lm.Pos.X) || math.IsNaN(lm.Pos.Y) {
			return fmt.Errorf("landmark %s has NaN position", lm.ID)
		}
	}
	return nil
}
