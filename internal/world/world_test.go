package world

import (
	"math"
	"testing"

	"repro/internal/geo"
)

// testWorld builds a two-region world: an indoor office and an outdoor
// field, separated by a wall with a door.
func testWorld() *World {
	return &World{
		Name: "test",
		Regions: []Region{
			{
				Name: "office", Kind: KindOffice,
				Poly:          geo.RectPoly(0, 0, 10, 10),
				CorridorWidth: 2.5, SkyOpenness: 0.05,
				LightLux: 300, MagNoise: 2, RSSINoise: 0,
			},
			{
				Name: "field", Kind: KindOpenSpace,
				Poly:          geo.RectPoly(10, 0, 30, 10),
				CorridorWidth: 20, SkyOpenness: 1,
				LightLux: 10000, MagNoise: 0.5, RSSINoise: 0,
			},
		},
		Walls: []Wall{
			{Seg: geo.Seg(geo.Pt(10, 0), geo.Pt(10, 4)), AttenuationDB: 12},
			{Seg: geo.Seg(geo.Pt(10, 6), geo.Pt(10, 10)), AttenuationDB: 12},
		},
		Landmarks: []Landmark{
			{ID: "door", Kind: LandmarkDoor, Pos: geo.Pt(10, 5), Radius: 2},
		},
		APs:    []Site{{ID: "ap0", Pos: geo.Pt(5, 5), TxPowerDBm: 16}},
		Towers: []Site{{ID: "t0", Pos: geo.Pt(200, 200), TxPowerDBm: 43}},
	}
}

func TestRegionAtAndWalkable(t *testing.T) {
	w := testWorld()
	if r := w.RegionAt(geo.Pt(5, 5)); r == nil || r.Name != "office" {
		t.Fatalf("RegionAt office = %v", r)
	}
	if r := w.RegionAt(geo.Pt(20, 5)); r == nil || r.Name != "field" {
		t.Fatalf("RegionAt field = %v", r)
	}
	if w.RegionAt(geo.Pt(-5, 5)) != nil {
		t.Error("outside should be nil")
	}
	if !w.Walkable(geo.Pt(5, 5)) || w.Walkable(geo.Pt(50, 50)) {
		t.Error("Walkable wrong")
	}
}

func TestIndoorClassification(t *testing.T) {
	w := testWorld()
	if !w.Indoor(geo.Pt(5, 5)) {
		t.Error("office should be indoor")
	}
	if w.Indoor(geo.Pt(20, 5)) {
		t.Error("field should be outdoor")
	}
	if w.Indoor(geo.Pt(-5, 5)) {
		t.Error("unregioned should be outdoor")
	}
}

func TestKindRoofed(t *testing.T) {
	roofed := []Kind{KindOffice, KindCorridor, KindBasement, KindCarPark, KindMall}
	for _, k := range roofed {
		if !k.Roofed() {
			t.Errorf("%v should be roofed", k)
		}
	}
	for _, k := range []Kind{KindOpenSpace, KindWalkway} {
		if k.Roofed() {
			t.Errorf("%v should not be roofed", k)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindOffice.String() != "office" || KindOpenSpace.String() != "open space" {
		t.Error("Kind strings wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
	if LandmarkTurn.String() != "turn" || LandmarkKind(99).String() == "" {
		t.Error("landmark kind strings wrong")
	}
}

func TestCorridorWidthAndOpenness(t *testing.T) {
	w := testWorld()
	if got := w.CorridorWidthAt(geo.Pt(5, 5)); got != 2.5 {
		t.Errorf("office width = %v", got)
	}
	if got := w.CorridorWidthAt(geo.Pt(-5, 5)); got != 30 {
		t.Errorf("default width = %v", got)
	}
	if got := w.SkyOpennessAt(geo.Pt(5, 5)); got != 0.05 {
		t.Errorf("office openness = %v", got)
	}
	if got := w.SkyOpennessAt(geo.Pt(-5, 5)); got != 1 {
		t.Errorf("default openness = %v", got)
	}
}

func TestWallsCrossedAndAttenuation(t *testing.T) {
	w := testWorld()
	// Through the wall (below the door).
	if got := w.WallsCrossed(geo.Pt(5, 2), geo.Pt(15, 2)); got != 1 {
		t.Errorf("crossed = %d", got)
	}
	if got := w.WallAttenuationDB(geo.Pt(5, 2), geo.Pt(15, 2)); got != 12 {
		t.Errorf("attenuation = %v", got)
	}
	// Through the door.
	if got := w.WallsCrossed(geo.Pt(5, 5), geo.Pt(15, 5)); got != 0 {
		t.Errorf("door crossed = %d", got)
	}
	// Within the office.
	if got := w.WallsCrossed(geo.Pt(2, 2), geo.Pt(8, 8)); got != 0 {
		t.Errorf("internal crossed = %d", got)
	}
}

func TestBlocksMotion(t *testing.T) {
	w := testWorld()
	cases := []struct {
		a, b    geo.Point
		blocked bool
		why     string
	}{
		{geo.Pt(5, 2), geo.Pt(15, 2), true, "wall should block"},
		{geo.Pt(5, 5), geo.Pt(9, 5), false, "open move should not block"},
		{geo.Pt(5, 5), geo.Pt(5, 50), true, "leaving walkable should block"},
		{geo.Pt(9, 5), geo.Pt(11, 5), false, "moving through the door should not block"},
	}
	for _, tc := range cases {
		if w.BlocksMotion(tc.a, tc.b) != tc.blocked {
			t.Errorf("reference: %s", tc.why)
		}
		var c Constraint
		c.Near(w, geo.NewRect(tc.a, tc.b))
		if c.Blocks(tc.a, tc.b) != tc.blocked {
			t.Errorf("constraint: %s", tc.why)
		}
	}
}

func TestLandmarkNear(t *testing.T) {
	w := testWorld()
	if lm := w.LandmarkNear(geo.Pt(10.5, 5.5)); lm == nil || lm.ID != "door" {
		t.Errorf("LandmarkNear = %v", lm)
	}
	if w.LandmarkNear(geo.Pt(0, 0)) != nil {
		t.Error("far point should have no landmark")
	}
}

func TestAmbientFields(t *testing.T) {
	w := testWorld()
	if w.LightAt(geo.Pt(5, 5)) != 300 || w.LightAt(geo.Pt(-5, 5)) != 10000 {
		t.Error("LightAt wrong")
	}
	if w.MagNoiseAt(geo.Pt(5, 5)) != 2 || w.MagNoiseAt(geo.Pt(-5, 5)) != 0.5 {
		t.Error("MagNoiseAt wrong")
	}
	if w.RSSINoiseAt(geo.Pt(5, 5)) != 0 {
		t.Error("RSSINoiseAt wrong")
	}
}

func TestPenetrationZones(t *testing.T) {
	w := testWorld()
	w.Zones = append(w.Zones, PenetrationZone{
		Name: "bunker", Poly: geo.RectPoly(0, 0, 10, 10), LossDB: 35,
	})
	if got := w.PenetrationAt(geo.Pt(5, 5)); got != 35 {
		t.Errorf("PenetrationAt in zone = %v", got)
	}
	if got := w.PenetrationAt(geo.Pt(20, 5)); got != 0 {
		t.Errorf("PenetrationAt outside = %v", got)
	}
}

func TestSkyBiasStable(t *testing.T) {
	w := testWorld()
	p := geo.Pt(20, 5)
	a := w.SkyBiasAt(p, 4)
	b := w.SkyBiasAt(p, 4)
	if a != b {
		t.Error("SkyBias must be stable per location")
	}
	// Nearby point in the same 8 m cell has the same bias.
	c := w.SkyBiasAt(geo.Pt(20.5, 5.5), 4)
	if a != c {
		t.Error("SkyBias should be cell-constant")
	}
	if math.IsNaN(a.X) || a.Norm() > 40 {
		t.Errorf("SkyBias implausible: %v", a)
	}
}

func TestBoundsUnion(t *testing.T) {
	w := testWorld()
	b := w.Bounds()
	if b.Min != geo.Pt(0, 0) || b.Max != geo.Pt(30, 10) {
		t.Errorf("Bounds = %+v", b)
	}
	empty := &World{}
	if empty.Bounds() != (geo.Rect{}) {
		t.Error("empty Bounds should be zero")
	}
}

func TestValidate(t *testing.T) {
	w := testWorld()
	if err := w.Validate(); err != nil {
		t.Fatalf("valid world rejected: %v", err)
	}
	bad := testWorld()
	bad.Regions[0].SkyOpenness = 2
	if bad.Validate() == nil {
		t.Error("openness > 1 should fail")
	}
	bad2 := testWorld()
	bad2.APs = append(bad2.APs, Site{ID: "ap0"})
	if bad2.Validate() == nil {
		t.Error("duplicate AP id should fail")
	}
	bad3 := testWorld()
	bad3.Landmarks[0].Radius = 0
	if bad3.Validate() == nil {
		t.Error("zero-radius landmark should fail")
	}
	empty := &World{Name: "empty"}
	if empty.Validate() == nil {
		t.Error("no regions should fail")
	}
}
