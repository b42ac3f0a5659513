package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/offload"
	"repro/internal/scenario"
	"repro/internal/sensing"
	"repro/internal/walker"
)

// walk is one pre-generated campus walk: what the phone uploads each
// epoch and where the walker truly was.
type walk struct {
	path  int
	start geo.Point
	snaps []*sensing.Snapshot
	truth []geo.Point
}

// genWalks builds the workload's walk pool from the seed: perPath walks
// on every campus path, ordered so that walk k runs path k mod paths.
// Walks are generated before any timing starts; maxEpochs > 0 truncates
// each walk (smoke tests).
func genWalks(campus *scenario.Assets, seed int64, perPath, maxEpochs int) []walk {
	place := campus.Place
	walks := make([]walk, perPath*len(place.Paths))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				path := place.Paths[k%len(place.Paths)]
				rnd := rand.New(rand.NewSource(seed*1000 + int64(k)))
				wk := walker.New(place.World, path.Line, campus.DefaultWalkerConfig(), rnd)
				start, _ := path.Line.At(0)
				w := walk{path: k % len(place.Paths), start: start}
				for !wk.Done() && (maxEpochs <= 0 || len(w.snaps) < maxEpochs) {
					// GPS stays powered: the phone cannot see the server's
					// gating decision over the protocol.
					snap, pos := wk.Next(true)
					w.snaps = append(w.snaps, snap)
					w.truth = append(w.truth, pos)
				}
				walks[k] = w
			}
		}()
	}
	for k := range walks {
		next <- k
	}
	close(next)
	wg.Wait()
	return walks
}

// surveyGridM is the grid an ingest walker's survey positions are
// snapped to: the campus's indoor survey spacing. Passes over the same
// spot refresh one map point instead of adding another, so the map
// stops growing once the paths are covered.
const surveyGridM = 3

// surveyAt is where a walker at p reports its survey.
func surveyAt(p geo.Point) geo.Point {
	return geo.Pt(surveyGridM*math.Round(p.X/surveyGridM), surveyGridM*math.Round(p.Y/surveyGridM))
}

// prepopulate folds every survey the walk pool sends into an ingest
// node's WiFi store before timing starts, each exactly as the server
// receives it (positions travel as float64, RSSI quantized). Every
// survey the run sends then refreshes a point already in the map, so
// the map holds the same points for the whole run and an epoch costs
// the same however many surveys came before it. Unusable scans are
// dropped here as they are in the run.
func prepopulate(store *mapstore.Store, walks []walk) {
	for _, w := range walks {
		for j := 0; j < len(w.snaps); j += surveyEvery {
			at := surveyAt(w.truth[j])
			sv, err := offload.DecodeSurvey(offload.EncodeSurvey(&offload.Survey{Map: offload.MapWiFi, X: at.X, Y: at.Y, Vec: w.snaps[j].WiFi}))
			if err != nil {
				continue
			}
			_ = store.Submit(fingerprint.Fingerprint{Pos: geo.Pt(sv.X, sv.Y), Vec: sv.Vec})
		}
	}
	store.Rebuild()
}

// startOf is where a session opened at epoch j of w begins: the
// walker's true position before that epoch.
func (w *walk) startOf(j int) geo.Point {
	if j == 0 {
		return w.start
	}
	return w.truth[j-1]
}

// frame is one encoded protocol frame.
type frame struct {
	t offload.MsgType
	p []byte
}

// encodeEpoch encodes one snapshot into the frames Client.Localize
// uploads for it (without a span context).
func encodeEpoch(s *sensing.Snapshot, seq uint32) []frame {
	fs := make([]frame, 0, 7)
	if s.Step != nil {
		fs = append(fs, frame{offload.MsgStepUpdate, offload.EncodeStep(s.Step)})
	}
	if len(s.WiFi) > 0 {
		fs = append(fs, frame{offload.MsgWiFiVector, offload.EncodeVector(s.WiFi)})
	}
	if len(s.Cell) > 0 {
		fs = append(fs, frame{offload.MsgCellVector, offload.EncodeVector(s.Cell)})
	}
	if s.GNSS.Reliable() {
		fs = append(fs, frame{offload.MsgGNSSFix, offload.EncodeFix(s.GNSS)})
	}
	if s.Landmark != nil {
		fs = append(fs, frame{offload.MsgLandmark, offload.EncodeLandmark(s.Landmark)})
	}
	return append(fs, frame{offload.MsgContext, offload.EncodeContextSeq(s, seq)})
}

// decodeEpoch assembles a snapshot from an epoch's frames the way the
// server does: fields arriving before the context frame are carried
// onto the snapshot it decodes.
func decodeEpoch(fs []frame) (*sensing.Snapshot, error) {
	snap := &sensing.Snapshot{}
	var err error
	for _, f := range fs {
		switch f.t {
		case offload.MsgStepUpdate:
			snap.Step, err = offload.DecodeStep(f.p)
		case offload.MsgWiFiVector:
			snap.WiFi, err = offload.DecodeVector(f.p)
		case offload.MsgCellVector:
			snap.Cell, err = offload.DecodeVector(f.p)
		case offload.MsgGNSSFix:
			snap.GNSS, err = offload.DecodeFix(f.p)
		case offload.MsgLandmark:
			snap.Landmark, err = offload.DecodeLandmark(f.p)
		case offload.MsgContext:
			var ctx *sensing.Snapshot
			ctx, _, _, err = offload.DecodeContextFull(f.p)
			if err == nil {
				ctx.WiFi, ctx.Cell = snap.WiFi, snap.Cell
				ctx.Step, ctx.GNSS, ctx.Landmark = snap.Step, snap.GNSS, snap.Landmark
				snap = ctx
			}
		default:
			err = fmt.Errorf("unexpected frame type %d", f.t)
		}
		if err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// onWire returns the snapshot as the server sees it after the protocol's
// quantization.
func onWire(s *sensing.Snapshot) (*sensing.Snapshot, error) {
	return decodeEpoch(encodeEpoch(s, 1))
}

// helloStart returns a start position as the server decodes it from a
// hello frame.
func helloStart(p geo.Point) (geo.Point, error) {
	h, err := offload.DecodeHello(offload.EncodeHello(&offload.Hello{Version: offload.ProtocolVersion, StartX: p.X, StartY: p.Y}))
	if err != nil {
		return geo.Point{}, err
	}
	return geo.Pt(h.StartX, h.StartY), nil
}
