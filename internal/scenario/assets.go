package scenario

import (
	"math/rand"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/gnss"
	"repro/internal/prng"
	"repro/internal/rf"
	"repro/internal/schemes"
	"repro/internal/walker"
)

// Survey spacings used across the evaluation: the paper's deployments
// collect fingerprints at ~3 m resolution indoors and 12 m in open
// spaces (fine-grained indoor collection, constrained access outdoors).
const (
	IndoorSpacingM  = 3
	OutdoorSpacingM = 12
)

// Assets bundles the per-place runtime artifacts every experiment
// needs: the WiFi and cellular fingerprint databases (surveyed with
// the reference device), the GNSS constellation and receiver, and
// factory methods for scheme instances.
type Assets struct {
	Place  *Place
	WiFiDB *fingerprint.DB
	CellDB *fingerprint.DB
	Con    *gnss.Constellation
	GPS    *gnss.Receiver
}

// NewAssets surveys the place and prepares its runtime assets
// deterministically from the seed.
func NewAssets(p *Place, seed int64) *Assets {
	rnd := rand.New(rand.NewSource(seed))
	w := p.World
	indoor := func(pt geo.Point) bool { return w.Indoor(pt) }
	outdoor := func(pt geo.Point) bool { return !w.Indoor(pt) }

	wifiModel := rf.WiFiModel()
	cellModel := rf.CellModel()

	wifiDB := fingerprint.Merge(
		fingerprint.SurveyArea(w, wifiModel, w.APs, IndoorSpacingM, rnd, indoor),
		fingerprint.SurveyArea(w, wifiModel, w.APs, OutdoorSpacingM, rnd, outdoor),
	)
	cellDB := fingerprint.Merge(
		fingerprint.SurveyArea(w, cellModel, w.Towers, IndoorSpacingM, rnd, indoor),
		fingerprint.SurveyArea(w, cellModel, w.Towers, OutdoorSpacingM, rnd, outdoor),
	)

	// One shared sky: every place sees the same satellite constellation
	// (the GPS error model learned in the training open space must
	// transfer to the evaluation places).
	con := gnss.NewConstellation(0x5A7E111E, 12)
	return &Assets{
		Place:  p,
		WiFiDB: wifiDB,
		CellDB: cellDB,
		Con:    con,
		GPS:    &gnss.Receiver{Con: con, World: w},
	}
}

// Schemes returns fresh instances of the five localization schemes,
// in the canonical order [gps, wifi, cellular, motion, fusion]. The
// random source seeds the particle filters.
func (a *Assets) Schemes(rnd *rand.Rand) []schemes.Scheme {
	return a.SchemesOver(a.WiFiDB, a.CellDB, rnd)
}

// SchemesOver is Schemes with the radio maps supplied by the caller —
// e.g. shared mapstore.Store instances serving every session from one
// indexed map — instead of this Assets' private databases.
//
// Each randomized scheme receives its own child stream, derived from
// rnd in canonical scheme order: handing the parent to two consumers
// would couple each one's output to how often the other draws.
// Each stream runs over a counting prng.Source (output bit-identical
// to the plain stdlib source it wraps), so the randomized schemes are
// snapshotable for cross-node session migration.
//
// The WiFi and fusion schemes share their RSSI deviation feature
// (schemes.ShareRSSIDev), so the WiFi distance column is built once
// per epoch, not twice; the outputs are bit-identical to unlinked
// schemes.
func (a *Assets) SchemesOver(wifiMap, cellMap fingerprint.Map, rnd *rand.Rand) []schemes.Scheme {
	pdrSrc := prng.New(rnd.Int63())
	fusionSrc := prng.New(rnd.Int63())
	pdr := schemes.NewPDR(a.Place.World, schemes.DefaultPDRConfig(), rand.New(pdrSrc))
	pdr.TrackSource(pdrSrc)
	fusion := schemes.NewFusion(a.Place.World, wifiMap, schemes.DefaultFusionConfig(), rand.New(fusionSrc))
	fusion.TrackSource(fusionSrc)
	wifi := schemes.NewWiFi(wifiMap)
	schemes.ShareRSSIDev(wifi, fusion)
	return []schemes.Scheme{
		schemes.NewGPS(a.Place.World.Proj),
		wifi,
		schemes.NewCellular(cellMap),
		pdr,
		fusion,
	}
}

// WalkerConfig returns the standard walk configuration for this place
// with the given person and device.
func (a *Assets) WalkerConfig(person walker.Config) walker.Config {
	person.GPS = a.GPS
	return person
}

// DefaultWalkerConfig returns the reference walk configuration
// (default person, reference device) wired to this place's GNSS
// receiver.
func (a *Assets) DefaultWalkerConfig() walker.Config {
	cfg := walker.DefaultConfig()
	cfg.GPS = a.GPS
	return cfg
}

// HeterogeneousWalkerConfig returns the walk configuration for the
// second device model (Figure 8d).
func (a *Assets) HeterogeneousWalkerConfig() walker.Config {
	cfg := a.DefaultWalkerConfig()
	cfg.Device = rf.Heterogeneous()
	return cfg
}
