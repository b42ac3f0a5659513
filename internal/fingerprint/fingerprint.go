// Package fingerprint implements the offline RSSI fingerprint database
// used by the RADAR-style WiFi and cellular localization schemes: site
// survey construction over a world's walkable area, nearest-neighbour
// matching in RSSI space, and the two data features the paper's error
// models use — local fingerprint spatial density (β₁) and the RSSI
// distance deviation of the top-k candidates (β₂).
package fingerprint

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geo"
	"repro/internal/rf"
	"repro/internal/world"
)

// Fingerprint is one surveyed location with its RSSI vector.
type Fingerprint struct {
	Pos geo.Point
	Vec rf.Vector
}

// Reader is the read-only query interface over one radio map. It is
// implemented by *DB (linear scans) and by mapstore.Snapshot (indexed,
// same results bit for bit), so the localization schemes stay agnostic
// to how the map is stored. The point ordering exposed through At and
// Positions is stable for the lifetime of a Reader, which keeps index
// results from Distances aligned with At.
type Reader interface {
	// Len returns the number of fingerprints in the map.
	Len() int
	// At returns fingerprint i (0 <= i < Len). Callers must treat the
	// returned vector as immutable.
	At(i int) Fingerprint
	// FloorDB returns the imputation value (dBm) for unheard
	// transmitters, used by the RSSI distance metric.
	FloorDB() float64
	// Spacing returns the nominal survey grid spacing in meters.
	Spacing() float64
	// Version identifies the map revision this Reader serves. A plain
	// *DB always reports 0; versioned stores report a monotonically
	// increasing snapshot version.
	Version() uint64
	// Positions returns the surveyed positions, aligned with At.
	Positions() []geo.Point
	// Nearest returns the k fingerprints closest to the observation in
	// RSSI space, sorted ascending by distance with deterministic
	// tie-breaking.
	Nearest(obs rf.Vector, k int) []Match
	// Distances returns the RSSI distance to every fingerprint, aligned
	// with At.
	Distances(obs rf.Vector) []float64
	// DensityAround returns the β₁ local fingerprint density feature.
	DensityAround(p geo.Point, neighbours int) float64
	// VectorAt returns the stored vector physically nearest p.
	VectorAt(p geo.Point) (vec rf.Vector, distM float64, ok bool)
}

// Map hands out self-consistent Readers over a radio map. A *DB is its
// own (only) view; a versioned store returns its current immutable
// snapshot, so one View call pins a consistent map revision for a whole
// sensing epoch even while background compaction swaps in new versions.
type Map interface {
	View() Reader
}

// DistanceAppender is an optional Reader extension: maps that can fill
// a caller-owned buffer with the per-fingerprint RSSI distances
// (identical values to Distances) implement it so per-epoch match
// paths reuse scratch instead of allocating Len() floats every scan.
type DistanceAppender interface {
	AppendDistances(dst []float64, obs rf.Vector) []float64
}

// AppendDistances fills dst (reusing its capacity) with the RSSI
// distance to every fingerprint of view, aligned with At — the
// allocation-free spelling of view.Distances. Readers that do not
// implement DistanceAppender fall back to one Distances allocation.
func AppendDistances(view Reader, dst []float64, obs rf.Vector) []float64 {
	if da, ok := view.(DistanceAppender); ok {
		return da.AppendDistances(dst, obs)
	}
	return append(dst, view.Distances(obs)...)
}

// DB is an offline fingerprint database. In the paper each offline
// fingerprint has one sample from each audible transmitter, and the
// database is assumed to be kept fresh by the provider or crowdsourcing.
type DB struct {
	Points   []Fingerprint
	SpacingM float64 // nominal grid spacing used at survey time
	Floor    float64 // imputation value for unheard transmitters
}

// Len implements Reader.
func (db *DB) Len() int { return len(db.Points) }

// At implements Reader.
func (db *DB) At(i int) Fingerprint { return db.Points[i] }

// FloorDB implements Reader.
func (db *DB) FloorDB() float64 { return db.Floor }

// Spacing implements Reader.
func (db *DB) Spacing() float64 { return db.SpacingM }

// Version implements Reader: a plain database is unversioned.
func (db *DB) Version() uint64 { return 0 }

// View implements Map: a plain database is its own single view.
func (db *DB) View() Reader { return db }

// Survey builds a fingerprint database by sampling a regular grid with
// the given spacing over the world's walkable area, measuring sites
// through the channel model with the reference device.
func Survey(w *world.World, m rf.Model, sites []world.Site, spacingM float64, rnd *rand.Rand) *DB {
	return SurveyArea(w, m, sites, spacingM, rnd, nil)
}

// SurveyArea is Survey restricted to grid points accepted by keep (nil
// keeps everything walkable). It lets a deployment survey indoor and
// outdoor areas at different densities, as the paper's deployments do
// (3 m indoors, 12 m in open spaces).
func SurveyArea(w *world.World, m rf.Model, sites []world.Site, spacingM float64, rnd *rand.Rand, keep func(geo.Point) bool) *DB {
	if spacingM <= 0 {
		panic(fmt.Sprintf("fingerprint: invalid spacing %f", spacingM))
	}
	b := w.Bounds()
	db := &DB{SpacingM: spacingM, Floor: m.SensitivityDBm - 8}
	dev := rf.Reference()
	for y := b.Min.Y + spacingM/2; y <= b.Max.Y; y += spacingM {
		for x := b.Min.X + spacingM/2; x <= b.Max.X; x += spacingM {
			p := geo.Pt(x, y)
			if !w.Walkable(p) {
				continue
			}
			if keep != nil && !keep(p) {
				continue
			}
			vec := m.Scan(w, sites, p, dev, rnd)
			// A single audible transmitter cannot discriminate
			// locations; such spots are effectively unfingerprintable
			// (matching needs at least MinAPsForFix = 2 anyway).
			if len(vec) < 2 {
				continue
			}
			db.Points = append(db.Points, Fingerprint{Pos: p, Vec: vec})
		}
	}
	return db
}

// Merge combines two databases (e.g. an indoor and an outdoor survey)
// into one. The result's nominal spacing is the smaller of the two.
func Merge(a, b *DB) *DB {
	out := &DB{SpacingM: a.SpacingM, Floor: a.Floor}
	if b.SpacingM > 0 && (out.SpacingM == 0 || b.SpacingM < out.SpacingM) {
		out.SpacingM = b.SpacingM
	}
	if b.Floor < out.Floor {
		out.Floor = b.Floor
	}
	out.Points = append(out.Points, a.Points...)
	out.Points = append(out.Points, b.Points...)
	return out
}

// Downsample returns a new database keeping roughly one fingerprint per
// (factor × factor) group, emulating the paper's coarser-density studies
// (5 m, 10 m, 15 m grids derived from fine-grained data).
func (db *DB) Downsample(factor int) *DB {
	if factor <= 1 {
		out := &DB{SpacingM: db.SpacingM, Floor: db.Floor}
		out.Points = append(out.Points, db.Points...)
		return out
	}
	out := &DB{SpacingM: db.SpacingM * float64(factor), Floor: db.Floor}
	cell := db.SpacingM * float64(factor)
	seen := make(map[[2]int64]bool)
	for _, fp := range db.Points {
		k := [2]int64{int64(math.Floor(fp.Pos.X / cell)), int64(math.Floor(fp.Pos.Y / cell))}
		if seen[k] {
			continue
		}
		seen[k] = true
		out.Points = append(out.Points, fp)
	}
	return out
}

// Match is one candidate location from RSSI matching.
type Match struct {
	Pos  geo.Point
	Dist float64 // RSSI-space Euclidean distance
}

// MatchLess is the canonical ordering of candidate matches: ascending
// RSSI distance, ties broken by position (X then Y), and finally by the
// original point index so that even co-located duplicate fingerprints
// order deterministically. Linear and indexed map implementations must
// agree on this ordering exactly for their results to be comparable.
func MatchLess(di, dj float64, pi, pj geo.Point, ii, ij int) bool {
	if di != dj {
		return di < dj
	}
	if pi.X != pj.X {
		return pi.X < pj.X
	}
	if pi.Y != pj.Y {
		return pi.Y < pj.Y
	}
	return ii < ij
}

// Nearest returns the k fingerprints closest to the observation in RSSI
// space, sorted by ascending RSSI distance with deterministic
// tie-breaking (MatchLess: distance, then position, then index). It
// returns fewer than k matches when the database is small.
func (db *DB) Nearest(obs rf.Vector, k int) []Match {
	if len(db.Points) == 0 || k <= 0 {
		return nil
	}
	type cand struct {
		m   Match
		idx int
	}
	cands := make([]cand, len(db.Points))
	for i, fp := range db.Points {
		cands[i] = cand{m: Match{Pos: fp.Pos, Dist: rf.Distance(obs, fp.Vec, db.Floor)}, idx: i}
	}
	sort.Slice(cands, func(i, j int) bool {
		return MatchLess(cands[i].m.Dist, cands[j].m.Dist, cands[i].m.Pos, cands[j].m.Pos, cands[i].idx, cands[j].idx)
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	matches := make([]Match, len(cands))
	for i, c := range cands {
		matches[i] = c.m
	}
	return matches
}

// Distances returns the RSSI-space distance from the observation to
// every fingerprint, aligned with Points. The HMM location predictor
// consumes this as its emission input.
func (db *DB) Distances(obs rf.Vector) []float64 {
	out := make([]float64, len(db.Points))
	for i, fp := range db.Points {
		out[i] = rf.Distance(obs, fp.Vec, db.Floor)
	}
	return out
}

// AppendDistances implements DistanceAppender: the same values as
// Distances, written into the caller's buffer.
func (db *DB) AppendDistances(dst []float64, obs rf.Vector) []float64 {
	for _, fp := range db.Points {
		dst = append(dst, rf.Distance(obs, fp.Vec, db.Floor))
	}
	return dst
}

// Positions returns the surveyed positions, aligned with Points.
func (db *DB) Positions() []geo.Point {
	out := make([]geo.Point, len(db.Points))
	for i, fp := range db.Points {
		out[i] = fp.Pos
	}
	return out
}

// DensityAround returns the local fingerprint spatial density feature
// β₁: the average distance from p to its nearest neighbours in the
// database (the paper measures "the average distance between two
// fingerprints around the location under consideration"). A sparse or
// empty neighbourhood returns a large sentinel distance.
func (db *DB) DensityAround(p geo.Point, neighbours int) float64 {
	if neighbours <= 0 {
		neighbours = 3
	}
	if len(db.Points) == 0 {
		return 50
	}
	dists := make([]float64, len(db.Points))
	for i, fp := range db.Points {
		dists[i] = fp.Pos.Dist(p)
	}
	sort.Float64s(dists)
	if len(dists) > neighbours {
		dists = dists[:neighbours]
	}
	var sum float64
	for _, d := range dists {
		sum += d
	}
	avg := sum / float64(len(dists))
	// The average nearest-neighbour distance understates grid pitch for
	// points between fingerprints; the max below keeps degenerate dense
	// spots from reporting near-zero spacing. The upper clamp keeps the
	// feature in the range the error models were trained on — beyond a
	// few grid pitches the area is simply unfingerprinted and a larger
	// value carries no additional information, only wild extrapolation.
	v := math.Max(avg, db.SpacingM/2)
	return math.Min(v, 20)
}

// TopKDeviation returns the RSSI-distance deviation feature β₂: the
// standard deviation of the RSSI distances of the first k candidates.
// Small deviation means the candidates are hard to distinguish, so the
// estimate is more likely wrong (hence the negative regression
// coefficient in Table II).
func TopKDeviation(matches []Match) float64 {
	if len(matches) < 2 {
		return 0
	}
	var mean float64
	for _, m := range matches {
		mean += m.Dist
	}
	mean /= float64(len(matches))
	var ss float64
	for _, m := range matches {
		d := m.Dist - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(matches)-1))
}

// VectorAt returns the stored fingerprint vector nearest in physical
// space to p (used by the fusion scheme to weight particles), along
// with the distance to that fingerprint. ok is false for an empty DB.
func (db *DB) VectorAt(p geo.Point) (vec rf.Vector, distM float64, ok bool) {
	if len(db.Points) == 0 {
		return nil, 0, false
	}
	best := 0
	bestD := math.Inf(1)
	for i, fp := range db.Points {
		if d := fp.Pos.DistSq(p); d < bestD {
			bestD = d
			best = i
		}
	}
	return db.Points[best].Vec, math.Sqrt(bestD), true
}

// AppendObsKey appends the canonical observation key to dst and
// returns it: each entry contributes its ID (length-prefixed, so
// concatenation is unambiguous) and the Float64bits of its RSSI. Two
// observations share a key iff AppendDistances would produce identical
// columns for them. Callers on hot paths reuse a scratch buffer here,
// avoiding the string allocation of ObsKey.
func AppendObsKey(dst []byte, obs rf.Vector) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, o := range obs {
		n := binary.PutUvarint(tmp[:], uint64(len(o.ID)))
		dst = append(dst, tmp[:n]...)
		dst = append(dst, o.ID...)
		binary.BigEndian.PutUint64(tmp[:8], math.Float64bits(o.RSSI))
		dst = append(dst, tmp[:8]...)
	}
	return dst
}

// ObsKey builds the canonical observation key as a string.
func ObsKey(obs rf.Vector) string {
	return string(AppendObsKey(nil, obs))
}
