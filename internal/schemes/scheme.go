// Package schemes implements the five localization schemes the paper
// aggregates (§II): smartphone GPS, WiFi RSSI fingerprinting (RADAR),
// cellular RSSI fingerprinting, motion-based pedestrian dead reckoning
// with a map-constrained particle filter and landmark calibration, and
// a Travi-Navi-style WiFi+PDR sensor-fusion scheme.
//
// Every scheme is a black box behind the Scheme interface: it consumes
// sensor snapshots and emits a position estimate plus the named data
// features its error model regresses on (Table I). UniLoc's core never
// looks inside a scheme — the paper's central design principle.
package schemes

import (
	"repro/internal/geo"
	"repro/internal/sensing"
	"repro/internal/sharedcompute"
)

// Feature names shared across schemes (Table I).
const (
	FeatFPDensity     = "fp_density"     // spatial density of fingerprints (β₁)
	FeatRSSIDev       = "rssi_dev"       // RSSI distance deviation of top-k candidates (β₂)
	FeatNumAPs        = "num_aps"        // number of audible APs
	FeatNumTowers     = "num_towers"     // number of audible cell towers
	FeatDistLandmark  = "dist_landmark"  // distance walked since the last landmark (β₁)
	FeatCorridorWidth = "corridor_width" // width of the corridor (β₂)
	FeatOrientFreq    = "orient_freq"    // orientation changing frequency
	FeatStepErr       = "step_err"       // step count error proxy
	FeatHDOP          = "hdop"           // GPS horizontal dilution of precision
	FeatNumSats       = "num_sats"       // number of visible satellites
)

// Sensor names for energy accounting.
const (
	SensorGPS  = "gps"
	SensorWiFi = "wifi"
	SensorCell = "cell"
	SensorIMU  = "imu"
)

// Scheme names.
const (
	NameGPS      = "gps"
	NameWiFi     = "wifi"
	NameCellular = "cellular"
	NameMotion   = "motion"
	NameFusion   = "fusion"
)

// Estimate is one scheme's output for one epoch.
type Estimate struct {
	Pos geo.Point
	// OK reports whether the scheme produced a usable estimate this
	// epoch. When false the framework temporarily excludes the scheme
	// (confidence zero), per §IV-A.
	OK bool
	// Features holds the real-time data features the scheme's error
	// model consumes, keyed by the Feat* names. Extra diagnostic
	// features may also be present.
	Features map[string]float64
}

// Scheme is a black-box localization scheme.
type Scheme interface {
	// Name returns the scheme identifier.
	Name() string
	// Reset prepares the scheme for a new walk starting near start.
	// Stateless schemes may ignore the argument.
	Reset(start geo.Point)
	// Estimate processes one sensing epoch.
	Estimate(snap *sensing.Snapshot) Estimate
	// RegressionFeatures lists the feature names the scheme's error
	// model regresses on, in a fixed order (Table I). An empty list
	// means the model is intercept-only (GPS outdoors).
	RegressionFeatures() []string
	// Sensors lists the sensors the scheme needs powered, for energy
	// accounting.
	Sensors() []string
}

// SharedComputeUser is the optional Scheme extension consumed by
// offload servers running the cross-session shared-compute cache
// (internal/sharedcompute): schemes that memoize per-snapshot work
// (RSSI likelihood grids, HMM state lists) read it through — and
// publish it to — the retained entry of the snapshot they pin, instead
// of recomputing privately per session. Every shared value is
// canonical (a pure function of snapshot, cell, observation, and
// scale) and every miss falls back to local computation of the same
// float sequence, so attaching or detaching the cache can never change
// a scheme's outputs — only the work done to produce them. Nil
// restores fully private computation.
type SharedComputeUser interface {
	SetSharedCompute(*sharedcompute.Cache)
}

// FeatureVector extracts the regression features from an estimate in
// the scheme's canonical order, defaulting missing entries to zero.
func FeatureVector(s Scheme, e Estimate) []float64 {
	names := s.RegressionFeatures()
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = e.Features[n]
	}
	return out
}
