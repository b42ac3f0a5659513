package schemes

import (
	"math/rand"

	"repro/internal/particle"
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
