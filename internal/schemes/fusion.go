package schemes

import (
	"math/rand"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/particle"
	"repro/internal/prng"
	"repro/internal/rf"
	"repro/internal/sensing"
	"repro/internal/sharedcompute"
	"repro/internal/world"
)

// FusionConfig holds the fusion scheme's parameters on top of the PDR
// filter parameters.
type FusionConfig struct {
	PDR PDRConfig
	// RSSIScaleDB converts the RSSI distance between the online scan
	// and a particle's nearest fingerprint into a likelihood:
	// exp(-(d/scale)²/2). Larger is flatter.
	RSSIScaleDB float64
	// MaxUsefulFPDistM gates the RSSI weighting on local fingerprint
	// density: when the average distance to the nearest fingerprints
	// around the current estimate exceeds this, the grid is too coarse
	// to discriminate between particles and the weighting is skipped
	// (the fusion scheme degenerates to pure PDR, as the paper observes
	// outdoors).
	MaxUsefulFPDistM float64
}

// DefaultFusionConfig returns the parameters used across the
// evaluation.
func DefaultFusionConfig() FusionConfig {
	return FusionConfig{
		PDR:              DefaultPDRConfig(),
		RSSIScaleDB:      15,
		MaxUsefulFPDistM: 5,
	}
}

// Fusion is the sensor-data-fusion scheme (Travi-Navi [11] style): the
// motion-based PDR particle filter whose particles are additionally
// weighted by the RSSI distance between the online WiFi vector and the
// offline fingerprint nearest each particle (§II).
//
// Like the paper's implementation it processes RSSI identically at
// every location — it has no notion of RSSI quality — which is exactly
// the blind spot UniLoc's error models compensate for.
//
// Like Fingerprinting, it reads the radio map through fingerprint.Map
// and pins one View per Estimate, so it works identically over a
// private database or a shared versioned store. Its RSSI deviation
// feature is the WiFi scheme's β₂ over the same view and scan; linked
// to that scheme (ShareRSSIDev, as scenario.Assets.SchemesOver does),
// it reads the value WiFi computed this epoch instead of rebuilding the
// distance column, and computes it itself only when WiFi's key differs.
type Fusion struct {
	cfg FusionConfig
	w   *world.World
	m   fingerprint.Map
	rnd *rand.Rand
	src *prng.Source // counting source under rnd; nil = unsnapshotable

	filter       *particle.Filter
	near         world.Constraint // stepCloud's scratch
	lastEst      geo.Point
	distLandmark float64
	headings     []float64

	// One-entry cross-epoch cache for DensityAround: the availability
	// gate evaluates density at lastEst, which is exactly the point the
	// previous epoch computed its β₁ feature at, so each density is
	// computed once and reused once — same floats, half the lookups.
	densPos geo.Point
	densVer uint64
	densVal float64
	densOK  bool

	// likMemo caches the RSSI likelihood per likelihood-grid cell
	// within one weightByRSSI pass (particles cluster — dozens share a
	// cell, so ~300 lookups collapse to the number of distinct cells
	// under the cloud). Cleared every pass; see weightByRSSI.
	likMemo map[sharedcompute.Cell]float64

	// The WiFi scheme's deviation memo (ShareRSSIDev; nil = none), and
	// per-epoch scratch for computing the rssiDev feature on a miss.
	dev          *devMemo
	distScratch  []float64
	idxScratch   []int
	matchScratch []fingerprint.Match

	// Optional cross-session shared-compute cache (see
	// SharedComputeUser): likelihood cells are read from and published
	// to the pinned snapshot's shared row, keyed by obsKeyBuf.
	shared    *sharedcompute.Cache
	obsKeyBuf []byte
}

// NewFusion creates the fusion scheme over world w and the WiFi
// fingerprint map m (a *fingerprint.DB or a shared store).
func NewFusion(w *world.World, m fingerprint.Map, cfg FusionConfig, rnd *rand.Rand) *Fusion {
	return &Fusion{cfg: cfg, w: w, m: m, rnd: rnd}
}

// Name implements Scheme.
func (f *Fusion) Name() string { return NameFusion }

// SetSharedCompute implements SharedComputeUser: weightByRSSI reads
// and publishes per-cell likelihoods through the pinned snapshot's
// shared row when one is retained. Nil restores fully private
// memoization; results are bit-identical either way.
func (f *Fusion) SetSharedCompute(c *sharedcompute.Cache) { f.shared = c }

// Reset implements Scheme.
func (f *Fusion) Reset(start geo.Point) {
	f.filter = particle.New(f.cfg.PDR.Particles, start, f.cfg.PDR.InitSigma, f.rnd)
	f.lastEst = start
	f.distLandmark = 0
	f.headings = f.headings[:0]
	f.densOK = false
}

// RegressionFeatures implements Scheme (Table I: the motion factors
// plus the spatial density of RSSI fingerprints β₃; the RSSI distance
// deviation becomes insignificant, which the fitted p-value shows).
func (f *Fusion) RegressionFeatures() []string {
	return []string{FeatDistLandmark, FeatCorridorWidth, FeatFPDensity, FeatRSSIDev}
}

// Sensors implements Scheme.
func (f *Fusion) Sensors() []string { return []string{SensorIMU, SensorWiFi} }

// densityAt returns view.DensityAround(p, 3) through the one-entry
// cache, keyed by position and map version so a store swap can never
// serve a stale value.
func (f *Fusion) densityAt(view fingerprint.Reader, p geo.Point) float64 {
	if f.densOK && f.densPos == p && f.densVer == view.Version() {
		return f.densVal
	}
	v := view.DensityAround(p, 3)
	f.densPos, f.densVer, f.densVal, f.densOK = p, view.Version(), v, true
	return v
}

// Estimate implements Scheme.
func (f *Fusion) Estimate(snap *sensing.Snapshot) Estimate {
	if f.filter == nil {
		return Estimate{OK: false}
	}
	view := f.m.View() // one consistent map revision for the whole epoch
	if snap.Step != nil {
		f.propagate(snap)
	}
	if snap.Landmark != nil {
		lm := geo.Pt(snap.Landmark.Pos.X, snap.Landmark.Pos.Y)
		f.filter.Reset(lm, f.cfg.PDR.LandmarkSigma)
		f.distLandmark = 0
	}

	// RSSI weighting of particles — applied uniformly, good data or
	// bad, as in Travi-Navi, but only where the fingerprint grid is
	// fine enough to discriminate between particles. Where fingerprints
	// are coarse (outdoor 12 m grids), RSSI cannot refine the cloud and
	// the fusion scheme degenerates to the motion scheme, exactly as
	// the paper observes ("the fusion-based scheme has the same error
	// model with the motion-based scheme in the outdoor environments").
	if len(snap.WiFi) >= MinAPsForFix && view.Len() > 0 &&
		f.densityAt(view, f.lastEst) <= f.cfg.MaxUsefulFPDistM {
		f.weightByRSSI(view, snap.WiFi)
		// Fine-grained RSSI weighting continuously re-calibrates the
		// cloud, so the "distance since calibration" feature decays
		// while it is active and starts growing where WiFi is lost —
		// which is when fusion error actually accumulates.
		f.distLandmark *= 0.8
	}

	effN, ok := f.filter.NormalizeEffectiveN()
	if !ok {
		f.filter.Reset(f.lastEst, f.cfg.PDR.LandmarkSigma)
		effN, _ = f.filter.NormalizeEffectiveN()
	}
	if effN < float64(f.cfg.PDR.Particles)*f.cfg.PDR.ResampleFrac {
		f.filter.Resample()
	}
	est := f.filter.Estimate()
	f.lastEst = est

	feats := map[string]float64{
		FeatDistLandmark:  f.distLandmark,
		FeatCorridorWidth: f.w.CorridorWidthAt(est),
		FeatFPDensity:     f.densityAt(view, est),
		FeatRSSIDev:       f.rssiDev(view, snap.WiFi),
	}
	return Estimate{Pos: est, OK: true, Features: feats}
}

func (f *Fusion) propagate(snap *sensing.Snapshot) {
	step := snap.Step
	f.distLandmark += step.LengthM
	f.headings = append(f.headings, step.HeadingR)
	if len(f.headings) > headingWindow {
		f.headings = f.headings[1:]
	}
	stepCloud(f.filter, &f.near, f.w, f.rnd, f.cfg.PDR, step)
}

// weightByRSSI multiplies each particle's weight by the likelihood of
// the online scan given the fingerprint representing the particle's
// likelihood-grid cell (half the survey spacing). The likelihood is
// canonical per cell: the cell CENTER picks the representative
// fingerprint, so the value depends only on (map snapshot, cell,
// observation, scale) — never on which particle reached the cell
// first — and one session's computation is valid bit-for-bit for
// every other session pinning the same snapshot. A private per-pass
// memo still collapses the ~300 particle lookups to one per distinct
// cell under the cloud; with a shared-compute cache attached, each
// distinct cell first consults the snapshot's shared row (publishing
// the canonical value on a miss), so across 64 sessions the grid is
// evaluated once instead of 64 times. The memo is cleared every pass —
// the observation changes each epoch, and the view is pinned for the
// whole pass — and the shared row is keyed by snapshot identity, so a
// mapstore version swap can never leak a stale likelihood.
func (f *Fusion) weightByRSSI(view fingerprint.Reader, obs rf.Vector) {
	scale := f.cfg.RSSIScaleDB
	floor := view.FloorDB()
	cell := sharedcompute.LikCellM(view)
	if f.likMemo == nil {
		f.likMemo = make(map[sharedcompute.Cell]float64, 64)
	}
	clear(f.likMemo)
	var entry *sharedcompute.Entry
	var row *sharedcompute.LikRow
	if f.shared != nil {
		if entry = f.shared.Get(view); entry != nil {
			f.obsKeyBuf = fingerprint.AppendObsKey(f.obsKeyBuf[:0], obs)
			row = entry.Row(scale, f.obsKeyBuf)
		}
	}
	f.filter.Weight(func(pos geo.Point) float64 {
		key := sharedcompute.CellFor(pos, cell)
		if l, ok := f.likMemo[key]; ok {
			return l
		}
		var l float64
		if row != nil {
			var ok bool
			if l, ok = row.Lookup(key); !ok {
				l = cellLikelihood(entry, view, obs, key, cell, scale, floor)
				row.Publish(key, l)
			}
		} else {
			l = cellLikelihood(entry, view, obs, key, cell, scale, floor)
		}
		f.likMemo[key] = l
		return l
	})
}

// cellLikelihood computes the canonical likelihood of obs at one grid
// cell: the fingerprint nearest the cell center, its RSSI distance to
// the scan, and the floored Gaussian (mapstore.CellLikelihood — the
// floor keeps one bad scan from annihilating the cloud outright).
// With a shared entry the representative resolves through its
// per-cell index cache; that cache holds exactly what VectorAt at the
// cell center returns, so both branches produce identical bits.
func cellLikelihood(entry *sharedcompute.Entry, view fingerprint.Reader, obs rf.Vector, key sharedcompute.Cell, cellM, scale, floor float64) float64 {
	var vec rf.Vector
	var ok bool
	if entry != nil {
		vec, ok = entry.RepVec(key)
	} else {
		vec, _, ok = view.VectorAt(key.Center(cellM))
	}
	if !ok {
		return 1.0
	}
	d := rf.Distance(obs, vec, floor)
	return sharedcompute.Likelihood(d, scale)
}

// rssiDev returns the top-k RSSI distance deviation against the
// database for the (insignificant, per the paper) β feature. It is the
// value the WiFi scheme computed for the same view and scan this epoch
// when the deviation memo holds it; otherwise it computes the value the
// same way WiFi does. Scratch buffers are reused across epochs, so the
// feature costs no O(map) allocations either way.
func (f *Fusion) rssiDev(view fingerprint.Reader, obs rf.Vector) float64 {
	if len(obs) < MinAPsForFix || view.Len() == 0 {
		return 0
	}
	if d, ok := f.dev.get(view, obs); ok {
		return d
	}
	f.distScratch = fingerprint.AppendDistances(view, f.distScratch[:0], obs)
	dists := f.distScratch
	f.idxScratch = topKInto(dists, TopK, f.idxScratch[:0])
	f.matchScratch = f.matchScratch[:0]
	for _, j := range f.idxScratch {
		f.matchScratch = append(f.matchScratch, fingerprint.Match{Pos: view.At(j).Pos, Dist: dists[j]})
	}
	return fingerprint.TopKDeviation(f.matchScratch)
}
