package schemes

import (
	"math"

	"repro/internal/fingerprint"
	"repro/internal/rf"
)

// devMemo is a one-entry memo of the RSSI deviation feature β₂, shared
// by one framework's WiFi fingerprinting scheme and its fusion scheme
// (ShareRSSIDev). Both compute fingerprint.TopKDeviation over the TopK
// matches of a scan against a map view: the distance column, its top-k
// and the deviation are a pure function of the view and the scan's
// bits. The memo keys the value on exactly those, the view's identity
// and every Obs's ID and RSSI bits, so a hit returns the very float the
// reader would compute, and a miss leaves the reader to compute it.
//
// The key holds the view, so a snapshot swap between the two schemes'
// View calls is a miss; so is a calibrated WiFi scan, which differs
// from the raw scan fusion weighs. A *fingerprint.DB view is keyed by
// its pointer, so the memo, like every per-view cache here, takes a
// database to be immutable once schemes read it.
//
// The framework steps its schemes one after another on one goroutine,
// WiFi before fusion, so the memo needs no lock. A nil *devMemo stores
// nothing and never hits.
type devMemo struct {
	view fingerprint.Reader // nil until the first put
	scan rf.Vector          // copy of the keyed scan; capacity reused
	dev  float64
}

// ShareRSSIDev links a WiFi fingerprinting scheme and a fusion scheme
// of one framework through a fresh deviation memo: WiFi stores each
// epoch's β₂ value, and fusion's rssiDev reads it instead of rebuilding
// the same distance column. Answers are bit-identical with or without
// the link; only the work differs.
func ShareRSSIDev(wifi *Fingerprinting, fusion *Fusion) {
	m := new(devMemo)
	wifi.dev, fusion.dev = m, m
}

// put records dev as the deviation of scan against view.
func (m *devMemo) put(view fingerprint.Reader, scan rf.Vector, dev float64) {
	if m == nil {
		return
	}
	m.view = view
	m.scan = append(m.scan[:0], scan...)
	m.dev = dev
}

// get returns the recorded deviation when it was recorded for this
// view and a scan with the same IDs and RSSI bits.
func (m *devMemo) get(view fingerprint.Reader, scan rf.Vector) (float64, bool) {
	if m == nil {
		return 0, false
	}
	if m.view != view || len(m.scan) != len(scan) {
		return 0, false
	}
	for i, o := range m.scan {
		if o.ID != scan[i].ID || math.Float64bits(o.RSSI) != math.Float64bits(scan[i].RSSI) {
			return 0, false
		}
	}
	return m.dev, true
}
