package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/offload"
)

// refOutcome is what replaying sampled sessions on reference
// frameworks found.
type refOutcome struct {
	sessions, epochs int
	mismatches       int
	firstMismatch    string
	refErrM          []float64 // reference position error per replayed epoch
	servedErrM       []float64 // served position error on the same epochs
	export, restore  samples   // µs, handoff state round trips (when timed)
	stateBytes       samples
}

// replay steps every sampled session on a fresh framework from factory
// — Reset at the hello's decoded start, then Step over the epochs as the
// server decodes them — and compares each answer with what the serving
// stack returned, Float32bits-exact on X and Y and equal on OK. With
// timeHandoff set it also times the state export and restore a
// migration performs, every migrateEvery epochs and at each session's
// end.
func replay(factory core.FrameworkFactory, walks []walk, sampled []served, timeHandoff bool) (*refOutcome, error) {
	out := &refOutcome{}
	var mu sync.Mutex
	var firstErr error
	next := make(chan served)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				o, err := replayOne(factory, &walks[s.walk], s, timeHandoff)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if o != nil {
					out.add(o)
				}
				mu.Unlock()
			}
		}()
	}
	for _, s := range sampled {
		next <- s
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

func (o *refOutcome) add(x *refOutcome) {
	o.sessions += x.sessions
	o.epochs += x.epochs
	o.mismatches += x.mismatches
	if o.firstMismatch == "" {
		o.firstMismatch = x.firstMismatch
	}
	o.refErrM = append(o.refErrM, x.refErrM...)
	o.servedErrM = append(o.servedErrM, x.servedErrM...)
	o.export.v = append(o.export.v, x.export.v...)
	o.restore.v = append(o.restore.v, x.restore.v...)
	o.stateBytes.v = append(o.stateBytes.v, x.stateBytes.v...)
}

func replayOne(factory core.FrameworkFactory, w *walk, s served, timeHandoff bool) (*refOutcome, error) {
	fw, err := factory()
	if err != nil {
		return nil, err
	}
	defer fw.Close()
	start, err := helloStart(s.start)
	if err != nil {
		return nil, err
	}
	fw.Reset(start)
	out := &refOutcome{sessions: 1}
	for i, got := range s.res {
		j := s.from + i
		snap, err := onWire(w.snaps[j])
		if err != nil {
			return nil, err
		}
		want := fw.Step(snap)
		out.epochs++
		out.refErrM = append(out.refErrM, want.BMA.Dist(w.truth[j]))
		out.servedErrM = append(out.servedErrM, got.Pos().Dist(w.truth[j]))
		if !sameBits(want.BMA.X, got.X) || !sameBits(want.BMA.Y, got.Y) || want.OK != got.OK {
			if out.mismatches == 0 {
				out.firstMismatch = fmt.Sprintf("path %d epoch %d: served (%v, %v, %v), reference (%v, %v, %v)",
					w.path, j, got.X, got.Y, got.OK, want.BMA.X, want.BMA.Y, want.OK)
			}
			out.mismatches++
		}
		if timeHandoff && ((i+1)%migrateEvery == 0 || i == len(s.res)-1) {
			if err := timeStateRoundTrip(factory, fw, uint32(i), out); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// sameBits compares two positions as the wire carries them: float32.
func sameBits(a, b float64) bool {
	return math.Float32bits(float32(a)) == math.Float32bits(float32(b))
}

// timeStateRoundTrip exports fw's state the way the server ships it
// (Framework.Snapshot + EncodeSessionState) and restores it the way a
// peer injects it (DecodeSessionState + factory + Restore).
func timeStateRoundTrip(factory core.FrameworkFactory, fw *core.Framework, seq uint32, out *refOutcome) error {
	t0 := time.Now()
	blob, err := fw.Snapshot()
	if err != nil {
		return err
	}
	state := offload.EncodeSessionState(&offload.SessionState{ClientID: "reference", Proto: offload.ProtocolVersion, Seq: seq, FW: blob})
	out.export.addSince(t0)
	out.stateBytes.add(float64(len(state)))
	t1 := time.Now()
	st, err := offload.DecodeSessionState(state)
	if err != nil {
		return err
	}
	fw2, err := factory()
	if err != nil {
		return err
	}
	defer fw2.Close()
	if err := fw2.Restore(st.FW); err != nil {
		return err
	}
	out.restore.addSince(t1)
	return nil
}
