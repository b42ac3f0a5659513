package schemes

import (
	"math/rand"

	"repro/internal/fingerprint"
	"repro/internal/particle"
	"repro/internal/rf"
	"repro/internal/sensing"
)

// MotionFilter exposes a PDR or fusion scheme's particle filter, random
// source and filter parameters to the external oracle tests.
func MotionFilter(s Scheme) (*particle.Filter, *rand.Rand, PDRConfig) {
	switch s := s.(type) {
	case *PDR:
		return s.filter, s.rnd, s.cfg
	case *Fusion:
		return s.filter, s.rnd, s.cfg.PDR
	}
	panic("schemes: not a particle-filter scheme")
}

// Propagate runs a PDR or fusion scheme's per-step propagate alone.
func Propagate(s Scheme, snap *sensing.Snapshot) {
	switch s := s.(type) {
	case *PDR:
		s.propagate(snap)
	case *Fusion:
		s.propagate(snap)
	default:
		panic("schemes: not a particle-filter scheme")
	}
}

// DevMemoHolds reports whether fusion's RSSI deviation memo holds a
// value for view and scan, i.e. whether its next rssiDev over them is
// a hit.
func DevMemoHolds(f *Fusion, view fingerprint.Reader, scan rf.Vector) bool {
	_, ok := f.dev.get(view, scan)
	return ok
}

// UnshareRSSIDev detaches every WiFi and fusion scheme in ss from its
// deviation memo, so each computes the feature privately.
func UnshareRSSIDev(ss []Scheme) {
	for _, s := range ss {
		switch s := s.(type) {
		case *Fingerprinting:
			s.dev = nil
		case *Fusion:
			s.dev = nil
		}
	}
}
