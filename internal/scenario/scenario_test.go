package scenario

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/world"
)

func allPlaces() []*Place {
	return []*Place{Campus(), Mall(), UrbanOpenSpace(), TrainingOffice(), TrainingOpenSpace()}
}

func TestWorldsValidate(t *testing.T) {
	for _, p := range allPlaces() {
		if err := p.World.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// TestPathsWalkable is the load-bearing geometry check: every point of
// every path, sampled at 0.5 m, must lie inside a walkable region, and
// no 0.5 m hop along the path may cross a wall.
func TestPathsWalkable(t *testing.T) {
	for _, p := range allPlaces() {
		for _, path := range p.Paths {
			total := path.Line.Length()
			if total < 50 {
				t.Errorf("%s/%s: suspiciously short (%.1f m)", p.Name, path.Name, total)
			}
			var prev geo.Point
			first := true
			for d := 0.0; d <= total; d += 0.5 {
				pt, _ := path.Line.At(d)
				if !p.World.Walkable(pt) {
					t.Fatalf("%s/%s: unwalkable at %.1f m: %v", p.Name, path.Name, d, pt)
				}
				var near world.Constraint
				near.Near(p.World, geo.NewRect(prev, pt))
				if !first && near.Blocks(prev, pt) {
					t.Fatalf("%s/%s: wall crossed at %.1f m (%v → %v)", p.Name, path.Name, d, prev, pt)
				}
				prev, first = pt, false
			}
		}
	}
}

func TestCampusPathInventory(t *testing.T) {
	c := Campus()
	if len(c.Paths) != 8 {
		t.Fatalf("campus paths = %d, want the paper's 8", len(c.Paths))
	}
	var total float64
	for _, p := range c.Paths {
		total += p.Line.Length()
	}
	// The paper's eight paths total 2.78 km; ours should land in the
	// same regime.
	if total < 2200 || total > 3500 {
		t.Errorf("total path length = %.0f m, want ~2780", total)
	}
	if _, ok := c.PathByName("path1"); !ok {
		t.Error("path1 missing")
	}
	if _, ok := c.PathByName("nonesuch"); ok {
		t.Error("PathByName should miss")
	}
}

func TestDailyPathSegments(t *testing.T) {
	c := Campus()
	p1, _ := c.PathByName("path1")
	wantOrder := []world.Kind{
		world.KindOffice, world.KindCorridor, world.KindBasement,
		world.KindCarPark, world.KindOpenSpace,
	}
	var seen []world.Kind
	for d := 0.0; d <= p1.Line.Length(); d += 1 {
		pt, _ := p1.Line.At(d)
		r := c.World.RegionAt(pt)
		if r == nil {
			continue
		}
		if len(seen) == 0 || seen[len(seen)-1] != r.Kind {
			seen = append(seen, r.Kind)
		}
	}
	// The canonical segment kinds must appear in the canonical order
	// (subsequence match; vertical connector corridors inside the
	// office may repeat kinds).
	i := 0
	for _, k := range seen {
		if i < len(wantOrder) && k == wantOrder[i] {
			i++
		}
	}
	if i != len(wantOrder) {
		t.Errorf("segment order %v missing canonical sequence %v", seen, wantOrder)
	}
}

func TestCampusBasementIsDark(t *testing.T) {
	c := Campus()
	a := NewAssets(c, 1)
	// No WiFi fingerprints inside the basement: the penetration zone
	// must kill the survey there.
	for _, fp := range a.WiFiDB.Points {
		if r := c.World.RegionAt(fp.Pos); r != nil && r.Kind == world.KindBasement {
			t.Fatalf("wifi fingerprint inside basement at %v", fp.Pos)
		}
	}
	// But cellular fingerprints must exist there.
	found := false
	for _, fp := range a.CellDB.Points {
		if r := c.World.RegionAt(fp.Pos); r != nil && r.Kind == world.KindBasement {
			found = true
			break
		}
	}
	if !found {
		t.Error("no cellular fingerprints in the basement")
	}
}

func TestLandmarksIndoorOnly(t *testing.T) {
	c := Campus()
	for _, lm := range c.World.Landmarks {
		if !c.World.Indoor(lm.Pos) && lm.Kind != world.LandmarkDoor {
			t.Errorf("non-door landmark %s outdoors at %v", lm.ID, lm.Pos)
		}
	}
	if len(c.World.Landmarks) < 10 {
		t.Errorf("campus landmarks = %d, too few", len(c.World.Landmarks))
	}
}

func TestAssetsDeterministic(t *testing.T) {
	p := TrainingOffice()
	a := NewAssets(p, 9)
	b := NewAssets(TrainingOffice(), 9)
	if len(a.WiFiDB.Points) != len(b.WiFiDB.Points) {
		t.Fatal("survey size differs across identical builds")
	}
	for i := range a.WiFiDB.Points {
		if a.WiFiDB.Points[i].Pos != b.WiFiDB.Points[i].Pos {
			t.Fatal("survey positions differ")
		}
		if len(a.WiFiDB.Points[i].Vec) != len(b.WiFiDB.Points[i].Vec) {
			t.Fatal("survey vectors differ")
		}
	}
}

func TestAssetsSpacingByEnvironment(t *testing.T) {
	c := Campus()
	a := NewAssets(c, 2)
	indoor, outdoor := 0, 0
	for _, fp := range a.WiFiDB.Points {
		if c.World.Indoor(fp.Pos) {
			indoor++
		} else {
			outdoor++
		}
	}
	if indoor == 0 || outdoor == 0 {
		t.Fatalf("survey should cover both: %d indoor / %d outdoor", indoor, outdoor)
	}
	// The indoor grid is 4× denser linearly, so indoor fingerprints
	// should outnumber outdoor ones despite smaller indoor area.
	if indoor < outdoor {
		t.Errorf("indoor %d < outdoor %d — spacing rule broken?", indoor, outdoor)
	}
}

func TestSchemesFactory(t *testing.T) {
	a := NewAssets(TrainingOffice(), 3)
	ss := a.Schemes(rand.New(rand.NewSource(1)))
	if len(ss) != 5 {
		t.Fatalf("schemes = %d, want the paper's 5", len(ss))
	}
	names := map[string]bool{}
	for _, s := range ss {
		names[s.Name()] = true
	}
	for _, want := range []string{"gps", "wifi", "cellular", "motion", "fusion"} {
		if !names[want] {
			t.Errorf("missing scheme %q", want)
		}
	}
}

func TestMallCellularWeak(t *testing.T) {
	m := Mall()
	a := NewAssets(m, 4)
	// Count audible towers at a mall aisle point: the paper observed
	// ~2 on the basement floor.
	var counts []int
	for _, fp := range a.CellDB.Points {
		counts = append(counts, len(fp.Vec))
	}
	if len(counts) == 0 {
		t.Fatal("no cellular fingerprints in the mall")
	}
	var sum int
	for _, c := range counts {
		sum += c
	}
	avg := float64(sum) / float64(len(counts))
	if avg > 3.5 {
		t.Errorf("mall hears %.1f towers on average, want ~2", avg)
	}
}

func TestLoopPathsCutCorrectly(t *testing.T) {
	loop := geo.Line(geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(100, 50), geo.Pt(0, 50), geo.Pt(0, 0))
	paths := loopPaths("x", loop, 4, 120)
	if len(paths) != 4 {
		t.Fatalf("paths = %d", len(paths))
	}
	for _, p := range paths {
		l := p.Line.Length()
		if l < 110 || l > 130 {
			t.Errorf("%s length = %v", p.Name, l)
		}
	}
	// Different offsets start at different points.
	s0, _ := paths[0].Line.At(0)
	s1, _ := paths[1].Line.At(0)
	if s0 == s1 {
		t.Error("offsets should differ")
	}
}
