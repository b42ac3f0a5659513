package schemes

import (
	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/hmm"
	"repro/internal/sensing"
	"repro/internal/sharedcompute"
)

// TopK is the number of candidate locations whose RSSI-distance
// deviation forms the β₂ feature (k=3 in the paper's setting).
const TopK = 3

// MinAPsForFix is the minimum number of audible transmitters for RSSI
// fingerprinting to produce a meaningful result (the paper observes
// that fewer than 3 audible APs rarely yields one; we require 2 so the
// scheme degrades before it disappears).
const MinAPsForFix = 2

// Fingerprinting is the RADAR-style RSSI fingerprinting scheme, used
// both for WiFi (over access points) and cellular (over towers): it
// matches the online RSSI vector against an offline fingerprint
// database by Euclidean distance and reports the closest fingerprint's
// location (§II).
//
// A second-order HMM smooths the raw matches into a predicted location
// used only to evaluate the local fingerprint-density feature β₁
// online (§III-B); the reported estimate remains the raw RADAR match,
// keeping the scheme faithful to the paper.
//
// The scheme is map-agnostic: it reads fingerprints through
// fingerprint.Map, so it runs identically over a private *fingerprint.DB
// or a shared, versioned *mapstore.Store. Each Estimate pins one View,
// so a whole sensing epoch always sees a single consistent map
// revision even while a store compacts in new versions; the HMM
// tracker is rebuilt (and the snapshot's transition kernel installed)
// when the pinned version changes, since its states are the map's
// points.
type Fingerprinting struct {
	name       string
	m          fingerprint.Map
	tracker    *hmm.Tracker
	trackerVer uint64
	countFeat  string // FeatNumAPs or FeatNumTowers
	sensor     string
	calibrator *Calibrator          // optional device-heterogeneity calibration
	shared     *sharedcompute.Cache // optional cross-session shared state
	dev        *devMemo             // β₂ handed to fusion (ShareRSSIDev); nil = none

	// Per-epoch scratch, reused across Estimate calls so the match
	// path allocates nothing proportional to the map size.
	distScratch  []float64
	idxScratch   []int
	matchScratch []fingerprint.Match
}

// NewWiFi creates the WiFi RADAR scheme over the given fingerprint
// map (a *fingerprint.DB or a shared store).
func NewWiFi(m fingerprint.Map) *Fingerprinting {
	f := &Fingerprinting{
		name:      NameWiFi,
		m:         m,
		countFeat: FeatNumAPs,
		sensor:    SensorWiFi,
	}
	f.rebuildTracker(m.View())
	return f
}

// NewCellular creates the cellular fingerprinting scheme (Otsason et
// al. [22]: RADAR's algorithm on GSM signals) over a tower fingerprint
// map.
func NewCellular(m fingerprint.Map) *Fingerprinting {
	f := &Fingerprinting{
		name:      NameCellular,
		m:         m,
		countFeat: FeatNumTowers,
		sensor:    SensorCell,
	}
	f.rebuildTracker(m.View())
	return f
}

// SetCalibrator attaches an online device-offset calibrator (nil
// disables calibration). See Figure 8d.
func (f *Fingerprinting) SetCalibrator(c *Calibrator) { f.calibrator = c }

// SetSharedCompute implements SharedComputeUser: tracker rebuilds over
// a pinned snapshot are counted in the cache's Trackers statistic. Nil
// stops the counting; tracker behavior is identical either way.
func (f *Fingerprinting) SetSharedCompute(c *sharedcompute.Cache) { f.shared = c }

// Name implements Scheme.
func (f *Fingerprinting) Name() string { return f.name }

// positionsKey memoizes a map snapshot's state positions on it.
type positionsKey struct{}

// rebuildTracker recreates the HMM over the view's positions. Over a
// map snapshot (an hmm.KernelSource) the tracker adopts the positions
// the snapshot memoizes, materialized once per snapshot and shared by
// every session's tracker, and shares the snapshot's transition
// kernel. Over a plain database it copies the positions and builds a
// private kernel of its own (hmm.New). Either kernel lists the same
// pairs, so the tracker's answers are bit-identical.
func (f *Fingerprinting) rebuildTracker(view fingerprint.Reader) {
	if src, ok := view.(hmm.KernelSource); ok {
		pos := src.Memo(positionsKey{}, func() any { return view.Positions() }).([]geo.Point)
		f.tracker = hmm.NewShared(pos)
		f.tracker.ShareKernel(src)
	} else {
		f.tracker = hmm.New(view.Positions())
	}
	if e := f.shared.Get(view); e != nil {
		e.CountTracker()
	}
	f.trackerVer = view.Version()
}

// Reset implements Scheme: the tracker's belief is re-initialized for
// a new walk.
func (f *Fingerprinting) Reset(geo.Point) {
	f.rebuildTracker(f.m.View())
}

// RegressionFeatures implements Scheme (Table I: spatial density of
// fingerprints, RSSI distance deviation, number of audible
// transmitters).
func (f *Fingerprinting) RegressionFeatures() []string {
	return []string{FeatFPDensity, FeatRSSIDev, f.countFeat}
}

// Sensors implements Scheme.
func (f *Fingerprinting) Sensors() []string { return []string{f.sensor} }

// Estimate implements Scheme.
func (f *Fingerprinting) Estimate(snap *sensing.Snapshot) Estimate {
	raw := snap.WiFi
	if f.name == NameCellular {
		raw = snap.Cell
	}
	view := f.m.View() // one consistent map revision for the whole epoch
	if len(raw) < MinAPsForFix || view.Len() == 0 {
		return Estimate{OK: false}
	}
	if view.Version() != f.trackerVer {
		// The shared map advanced: the tracker's states are stale. Its
		// belief restarts, which one multi-modal update re-localizes.
		f.rebuildTracker(view)
	}
	obs := raw
	if f.calibrator != nil {
		obs = f.calibrator.Transform(raw)
	}
	f.distScratch = fingerprint.AppendDistances(view, f.distScratch[:0], obs)
	dists := f.distScratch

	// Raw RADAR match: the fingerprint at minimum RSSI distance, with
	// the top-k kept for the deviation feature.
	f.idxScratch = topKInto(dists, TopK, f.idxScratch[:0])
	idx := f.idxScratch
	best := idx[0]
	f.matchScratch = f.matchScratch[:0]
	for _, j := range idx {
		f.matchScratch = append(f.matchScratch, fingerprint.Match{Pos: view.At(j).Pos, Dist: dists[j]})
	}
	matches := f.matchScratch

	// Online calibrator learning: the matched fingerprint supplies the
	// expected reference-device RSSI for each transmitter heard.
	if f.calibrator != nil {
		f.calibrator.Observe(raw, view.At(best).Vec)
	}

	// HMM-predicted location for the density feature.
	pred := f.tracker.Update(dists)

	dev := fingerprint.TopKDeviation(matches)
	f.dev.put(view, obs, dev)
	feats := map[string]float64{
		FeatFPDensity: view.DensityAround(pred, 3),
		FeatRSSIDev:   dev,
		f.countFeat:   float64(len(obs)),
	}
	return Estimate{Pos: view.At(best).Pos, OK: true, Features: feats}
}

// Source exposes the underlying fingerprint map (read-only use).
func (f *Fingerprinting) Source() fingerprint.Map { return f.m }

// topKInto appends the indices of the k smallest values of xs to dst,
// ascending, with deterministic tie-breaking (value, then index) — the
// same result a full index sort truncated to k would produce, without
// allocating the O(len(xs)) index slice. dst should have its length
// reset by the caller; its capacity is reused.
func topKInto(xs []float64, k int, dst []int) []int {
	less := func(a, b int) bool {
		if xs[a] != xs[b] {
			return xs[a] < xs[b]
		}
		return a < b
	}
	for i := range xs {
		if len(dst) < k {
			dst = append(dst, i)
		} else if less(i, dst[k-1]) {
			dst[k-1] = i
		} else {
			continue
		}
		// Bubble the inserted index up to its sorted slot.
		for j := len(dst) - 1; j > 0 && less(dst[j], dst[j-1]); j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}
