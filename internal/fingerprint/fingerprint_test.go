package fingerprint

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/noise"
	"repro/internal/rf"
	"repro/internal/world"
)

func fpWorld() *world.World {
	return &world.World{
		Name:  "fp",
		Noise: noise.Field{Seed: 3},
		Regions: []world.Region{
			{Name: "room", Kind: world.KindOffice, Poly: geo.RectPoly(0, 0, 30, 30), SkyOpenness: 0.05, LightLux: 300, MagNoise: 2},
		},
		APs: []world.Site{
			{ID: "a", Pos: geo.Pt(2, 2), TxPowerDBm: 16},
			{ID: "b", Pos: geo.Pt(28, 2), TxPowerDBm: 16},
			{ID: "c", Pos: geo.Pt(15, 28), TxPowerDBm: 16},
		},
	}
}

func TestSurveyCoversWalkableGrid(t *testing.T) {
	w := fpWorld()
	db := Survey(w, rf.WiFiModel(), w.APs, 3, rand.New(rand.NewSource(1)))
	if len(db.Points) < 80 {
		t.Fatalf("survey too sparse: %d points", len(db.Points))
	}
	for _, fp := range db.Points {
		if !w.Walkable(fp.Pos) {
			t.Fatalf("fingerprint at unwalkable %v", fp.Pos)
		}
		if len(fp.Vec) == 0 {
			t.Fatal("empty fingerprint vector")
		}
	}
}

func TestSurveyAreaFilter(t *testing.T) {
	w := fpWorld()
	keep := func(p geo.Point) bool { return p.X < 15 }
	db := SurveyArea(w, rf.WiFiModel(), w.APs, 3, rand.New(rand.NewSource(1)), keep)
	for _, fp := range db.Points {
		if fp.Pos.X >= 15 {
			t.Fatalf("filter violated at %v", fp.Pos)
		}
	}
	if len(db.Points) == 0 {
		t.Fatal("filter should keep some points")
	}
}

func TestSurveyPanicsOnBadSpacing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Survey(fpWorld(), rf.WiFiModel(), nil, 0, rand.New(rand.NewSource(1)))
}

func TestMerge(t *testing.T) {
	w := fpWorld()
	a := Survey(w, rf.WiFiModel(), w.APs, 6, rand.New(rand.NewSource(1)))
	b := Survey(w, rf.WiFiModel(), w.APs, 12, rand.New(rand.NewSource(2)))
	m := Merge(a, b)
	if len(m.Points) != len(a.Points)+len(b.Points) {
		t.Errorf("merged %d != %d + %d", len(m.Points), len(a.Points), len(b.Points))
	}
	if m.SpacingM != 6 {
		t.Errorf("merged spacing = %v", m.SpacingM)
	}
}

func TestNearestMatchesTruePosition(t *testing.T) {
	w := fpWorld()
	model := rf.WiFiModel()
	db := Survey(w, model, w.APs, 3, rand.New(rand.NewSource(1)))
	rnd := rand.New(rand.NewSource(9))
	truth := geo.Pt(10.3, 12.1)
	obs := model.Scan(w, w.APs, truth, rf.Reference(), rnd)
	matches := db.Nearest(obs, 3)
	if len(matches) != 3 {
		t.Fatalf("matches = %d", len(matches))
	}
	if matches[0].Dist > matches[1].Dist || matches[1].Dist > matches[2].Dist {
		t.Error("matches not sorted")
	}
	// Only three APs cover this room, so discrimination is coarse; the
	// match must still land in the right part of the room.
	if matches[0].Pos.Dist(truth) > 12 {
		t.Errorf("top-1 %v too far from truth %v", matches[0].Pos, truth)
	}
}

func TestNearestEdgeCases(t *testing.T) {
	db := &DB{}
	if db.Nearest(rf.Vector{{ID: "a", RSSI: -50}}, 3) != nil {
		t.Error("empty DB should return nil")
	}
	db2 := &DB{Points: []Fingerprint{{Pos: geo.Pt(0, 0), Vec: rf.Vector{{ID: "a", RSSI: -50}}}}}
	m := db2.Nearest(rf.Vector{{ID: "a", RSSI: -55}}, 5)
	if len(m) != 1 {
		t.Errorf("k > n should return all: %d", len(m))
	}
	if db2.Nearest(nil, 0) != nil {
		t.Error("k=0 should return nil")
	}
}

// TestNearestTieBreakDeterministic pins the canonical MatchLess
// ordering on crafted ties: equal RSSI distance orders by position (X
// then Y), and co-located duplicates fall back to index order, so the
// linear scan and any indexed implementation can be compared exactly.
func TestNearestTieBreakDeterministic(t *testing.T) {
	vec := rf.Vector{{ID: "a", RSSI: -50}}
	db := &DB{Points: []Fingerprint{
		{Pos: geo.Pt(5, 9), Vec: vec},
		{Pos: geo.Pt(5, 1), Vec: vec}, // same X, smaller Y: must sort first
		{Pos: geo.Pt(2, 7), Vec: vec}, // smallest X: must sort before both
		{Pos: geo.Pt(2, 7), Vec: vec}, // exact duplicate: index breaks the tie
	}}
	obs := rf.Vector{{ID: "a", RSSI: -53}}
	want := []Match{
		{Pos: geo.Pt(2, 7), Dist: 3},
		{Pos: geo.Pt(2, 7), Dist: 3},
		{Pos: geo.Pt(5, 1), Dist: 3},
		{Pos: geo.Pt(5, 9), Dist: 3},
	}
	for trial := 0; trial < 10; trial++ {
		got := db.Nearest(obs, len(db.Points))
		if len(got) != len(want) {
			t.Fatalf("got %d matches", len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d match %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
	// Truncation keeps the same prefix.
	top2 := db.Nearest(obs, 2)
	if len(top2) != 2 || top2[0] != want[0] || top2[1] != want[1] {
		t.Errorf("top-2 = %+v", top2)
	}
}

func TestMergeEdgeCases(t *testing.T) {
	empty := &DB{}
	survey := &DB{SpacingM: 3, Floor: -100, Points: []Fingerprint{
		{Pos: geo.Pt(0, 0), Vec: rf.Vector{{ID: "a", RSSI: -50}, {ID: "b", RSSI: -60}}},
	}}

	// Empty ⊕ empty: still a valid, queryable database.
	ee := Merge(empty, empty)
	if ee.Len() != 0 || ee.Nearest(rf.Vector{{ID: "a", RSSI: -50}}, 3) != nil {
		t.Errorf("empty merge misbehaves: %+v", ee)
	}

	// Empty zero-valued left side must not clobber the right side's
	// spacing or floor.
	em := Merge(empty, survey)
	if em.Len() != 1 || em.SpacingM != 3 || em.Floor != -100 {
		t.Errorf("Merge(empty, survey) = spacing %v floor %v len %d", em.SpacingM, em.Floor, em.Len())
	}
	me := Merge(survey, empty)
	if me.Len() != 1 || me.SpacingM != 3 || me.Floor != -100 {
		t.Errorf("Merge(survey, empty) = spacing %v floor %v len %d", me.SpacingM, me.Floor, me.Len())
	}

	// Mismatched transmitter sets: both sides' points survive unchanged
	// and the lower (more conservative) floor wins.
	other := &DB{SpacingM: 12, Floor: -118, Points: []Fingerprint{
		{Pos: geo.Pt(9, 9), Vec: rf.Vector{{ID: "t1", RSSI: -70}, {ID: "t2", RSSI: -80}}},
	}}
	mm := Merge(survey, other)
	if mm.Len() != 2 || mm.SpacingM != 3 || mm.Floor != -118 {
		t.Errorf("mismatched merge = spacing %v floor %v len %d", mm.SpacingM, mm.Floor, mm.Len())
	}
	if mm.At(0).Vec[0].ID != "a" || mm.At(1).Vec[0].ID != "t1" {
		t.Error("merged points lost their transmitter sets")
	}
	// Matching across disjoint transmitter sets stays well defined: the
	// point sharing the observation's transmitters wins.
	m := mm.Nearest(rf.Vector{{ID: "a", RSSI: -50}, {ID: "b", RSSI: -60}}, 1)
	if len(m) != 1 || m[0].Pos != geo.Pt(0, 0) {
		t.Errorf("cross-set match = %+v", m)
	}
	// The merge is storage-independent of its inputs.
	mm.Points[0].Pos = geo.Pt(-1, -1)
	if survey.Points[0].Pos == geo.Pt(-1, -1) {
		t.Error("Merge shares backing storage with its inputs")
	}
}

func TestDownsampleEdgeCases(t *testing.T) {
	empty := &DB{SpacingM: 3, Floor: -100}
	for _, factor := range []int{-2, 0, 1, 4} {
		d := empty.Downsample(factor)
		if d.Len() != 0 {
			t.Errorf("factor %d on empty DB kept %d points", factor, d.Len())
		}
		if d.Floor != -100 {
			t.Errorf("factor %d lost floor: %v", factor, d.Floor)
		}
	}

	db := &DB{SpacingM: 3, Floor: -100}
	for x := 0.0; x < 12; x += 3 {
		db.Points = append(db.Points, Fingerprint{Pos: geo.Pt(x, 0), Vec: rf.Vector{{ID: "a", RSSI: -50}}})
	}
	// factor <= 1 (including zero and negatives) is an independent
	// identity copy at unchanged spacing.
	for _, factor := range []int{-1, 0, 1} {
		same := db.Downsample(factor)
		if same.Len() != db.Len() || same.SpacingM != db.SpacingM {
			t.Errorf("factor %d: len %d spacing %v", factor, same.Len(), same.SpacingM)
		}
		same.Points[0].Pos = geo.Pt(-5, -5)
		if db.Points[0].Pos == geo.Pt(-5, -5) {
			t.Errorf("factor %d shares backing storage", factor)
		}
		db.Points[0].Pos = geo.Pt(0, 0)
	}
	// A factor swallowing the whole grid keeps exactly one point.
	one := db.Downsample(100)
	if one.Len() != 1 || one.SpacingM != 300 {
		t.Errorf("factor 100: len %d spacing %v", one.Len(), one.SpacingM)
	}
}

func TestDBImplementsReaderAndMap(t *testing.T) {
	db := &DB{SpacingM: 3, Floor: -100, Points: []Fingerprint{
		{Pos: geo.Pt(1, 2), Vec: rf.Vector{{ID: "a", RSSI: -40}}},
	}}
	var r Reader = db
	var m Map = db
	if m.View() != r {
		t.Error("a DB must be its own view")
	}
	if r.Len() != 1 || r.At(0).Pos != geo.Pt(1, 2) || r.FloorDB() != -100 || r.Spacing() != 3 {
		t.Errorf("reader accessors wrong: %+v", r)
	}
	if r.Version() != 0 {
		t.Error("plain DB must report version 0")
	}
}

func TestDistancesAlignment(t *testing.T) {
	w := fpWorld()
	model := rf.WiFiModel()
	db := Survey(w, model, w.APs, 6, rand.New(rand.NewSource(1)))
	obs := model.Scan(w, w.APs, geo.Pt(5, 5), rf.Reference(), rand.New(rand.NewSource(2)))
	dists := db.Distances(obs)
	if len(dists) != len(db.Points) {
		t.Fatalf("distances len %d != points %d", len(dists), len(db.Points))
	}
	pos := db.Positions()
	if len(pos) != len(db.Points) {
		t.Fatal("positions misaligned")
	}
	for i := range pos {
		if pos[i] != db.Points[i].Pos {
			t.Fatal("positions out of order")
		}
	}
}

func TestDensityAround(t *testing.T) {
	db := &DB{SpacingM: 3}
	for x := 0.0; x < 30; x += 3 {
		for y := 0.0; y < 30; y += 3 {
			db.Points = append(db.Points, Fingerprint{Pos: geo.Pt(x, y), Vec: rf.Vector{{ID: "a", RSSI: -50}}})
		}
	}
	dense := db.DensityAround(geo.Pt(15, 15), 3)
	if dense < 1.5 || dense > 4.5 {
		t.Errorf("dense density = %v, want ~3", dense)
	}
	sparse := db.Downsample(4)
	d := sparse.DensityAround(geo.Pt(15, 15), 3)
	if d <= dense {
		t.Errorf("downsampled density %v should exceed dense %v", d, dense)
	}
	// Far outside: clamped at 20.
	if got := db.DensityAround(geo.Pt(500, 500), 3); got != 20 {
		t.Errorf("far density = %v, want clamp 20", got)
	}
	empty := &DB{SpacingM: 3}
	if got := empty.DensityAround(geo.Pt(0, 0), 3); got != 50 {
		t.Errorf("empty density = %v", got)
	}
}

func TestDownsample(t *testing.T) {
	w := fpWorld()
	db := Survey(w, rf.WiFiModel(), w.APs, 3, rand.New(rand.NewSource(1)))
	down := db.Downsample(2)
	if len(down.Points) >= len(db.Points) {
		t.Errorf("downsample kept %d of %d", len(down.Points), len(db.Points))
	}
	if down.SpacingM != 6 {
		t.Errorf("spacing = %v", down.SpacingM)
	}
	same := db.Downsample(1)
	if len(same.Points) != len(db.Points) {
		t.Error("factor 1 should keep all")
	}
	// Factor-1 copy must be independent storage.
	same.Points[0].Pos = geo.Pt(-99, -99)
	if db.Points[0].Pos == geo.Pt(-99, -99) {
		t.Error("Downsample(1) shares backing storage")
	}
}

func TestTopKDeviation(t *testing.T) {
	matches := []Match{{Dist: 10}, {Dist: 12}, {Dist: 14}}
	if got := TopKDeviation(matches); math.Abs(got-2) > 1e-9 {
		t.Errorf("deviation = %v", got)
	}
	if TopKDeviation(nil) != 0 || TopKDeviation(matches[:1]) != 0 {
		t.Error("degenerate deviation should be 0")
	}
}

func TestVectorAt(t *testing.T) {
	db := &DB{Points: []Fingerprint{
		{Pos: geo.Pt(0, 0), Vec: rf.Vector{{ID: "a", RSSI: -40}}},
		{Pos: geo.Pt(10, 0), Vec: rf.Vector{{ID: "a", RSSI: -60}}},
	}}
	vec, dist, ok := db.VectorAt(geo.Pt(1, 1))
	if !ok || vec[0].RSSI != -40 {
		t.Errorf("VectorAt = %v, %v", vec, ok)
	}
	if math.Abs(dist-math.Sqrt2) > 1e-9 {
		t.Errorf("dist = %v", dist)
	}
	empty := &DB{}
	if _, _, ok := empty.VectorAt(geo.Pt(0, 0)); ok {
		t.Error("empty DB should be !ok")
	}
}

// TestObsKeyCanonical: keys are injective over (ID, RSSI) sequences —
// concatenation ambiguity between adjacent IDs must not produce
// colliding keys.
func TestObsKeyCanonical(t *testing.T) {
	a := ObsKey(rf.Vector{{ID: "ab", RSSI: -50}, {ID: "c", RSSI: -60}})
	b := ObsKey(rf.Vector{{ID: "a", RSSI: -50}, {ID: "bc", RSSI: -60}})
	if a == b {
		t.Fatal("ObsKey collided across different ID splits")
	}
	if ObsKey(nil) != ObsKey(rf.Vector{}) {
		t.Fatal("empty vectors must share a key")
	}
}
