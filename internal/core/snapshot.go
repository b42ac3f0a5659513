package core

import (
	"fmt"
	"sort"

	"repro/internal/geo"
	"repro/internal/iodetector"
	"repro/internal/schemes"
	"repro/internal/statecodec"
)

// snapshotVersion is the framework state blob's format version.
// Decoders reject other versions outright: a session state is shipped
// between nodes of one cluster, and mixed-build clusters must fail
// loudly rather than misinterpret bits.
const snapshotVersion byte = 1

// Snapshot serializes the framework's complete mutable walk state —
// environment classification, gating memory, last-good fallback, the
// IODetector's hysteresis, and every scheme's state blob — into a
// versioned binary buffer. Restoring the buffer into a framework
// built by the same factory continues the walk bit-identically to an
// uninterrupted run (the contract the cross-node resume tests prove).
//
// Must be called from the goroutine driving Step (it reads the same
// state Step mutates); the offload layer calls it at epoch
// boundaries.
func (f *Framework) Snapshot() ([]byte, error) { return f.AppendSnapshot(nil) }

// AppendSnapshot appends the Snapshot encoding to dst and returns the
// extended slice. Every scheme appends its state blob in place behind
// a back-patched length, so a caller that presizes dst (the session
// export does, from the previous export's size) builds the whole
// state in one buffer.
func (f *Framework) AppendSnapshot(dst []byte) ([]byte, error) {
	dst = append(dst, snapshotVersion)
	dst = statecodec.AppendU8(dst, byte(f.lastEnv))
	dst = statecodec.AppendF64(dst, f.lastGood.X)
	dst = statecodec.AppendF64(dst, f.lastGood.Y)
	dst = statecodec.AppendBool(dst, f.hasLastGood)

	m := f.iod.Export()
	dst = statecodec.AppendU8(dst, byte(m.State))
	dst = statecodec.AppendU8(dst, byte(m.PendingState))
	dst = statecodec.AppendU32(dst, uint32(m.PendingVotes))
	dst = statecodec.AppendF64(dst, m.CellBaseline)
	dst = statecodec.AppendBool(dst, m.HaveBaseline)

	// lastPred in sorted key order so identical state always encodes
	// to identical bytes (map iteration order must not leak in).
	names := make([]string, 0, len(f.lastPred))
	for n := range f.lastPred {
		names = append(names, n)
	}
	sort.Strings(names)
	dst = statecodec.AppendU32(dst, uint32(len(names)))
	for _, n := range names {
		dst = statecodec.AppendString(dst, n)
		dst = statecodec.AppendF64(dst, f.lastPred[n])
	}

	dst = statecodec.AppendU32(dst, uint32(len(f.schemes)))
	for _, s := range f.schemes {
		dst = statecodec.AppendString(dst, s.Name())
		var at int
		dst, at = statecodec.OpenBytes(dst)
		// Schemes without a codec are stateless by contract (e.g.
		// GPS): their blob stays empty.
		if sc, ok := s.(schemes.StateCodec); ok {
			var err error
			if dst, err = sc.AppendState(dst); err != nil {
				return nil, fmt.Errorf("core: snapshot scheme %s: %w", s.Name(), err)
			}
		}
		dst = statecodec.CloseBytes(dst, at)
	}
	return dst, nil
}

// Restore installs a Snapshot into this framework. The framework must
// have been built by the same factory as the snapshot's origin (same
// scheme list, same models, same configuration); scheme-list
// mismatches are rejected. Restore first Resets the framework to a
// defined state — filters exist, trackers are built — then overwrites
// that state, including every tracked RNG stream position, so the
// draws Reset itself spent are irrelevant.
func (f *Framework) Restore(b []byte) error {
	r := statecodec.NewReader(b)
	if v := r.U8(); r.Err() != nil {
		return fmt.Errorf("core: truncated framework snapshot: %w", r.Err())
	} else if v != snapshotVersion {
		return fmt.Errorf("core: unsupported framework snapshot version %d", v)
	}
	lastEnv := EnvClass(r.U8())
	lastGood := geo.Pt(r.F64(), r.F64())
	hasLastGood := r.Bool()
	iodState := r.U8()
	iodPending := r.U8()
	iodVotes := r.U32()
	iodBaseline := r.F64()
	iodHave := r.Bool()
	nPred := int(r.U32())
	if r.Err() != nil {
		return fmt.Errorf("core: truncated framework snapshot: %w", r.Err())
	}
	// Each entry is at least a length prefix and a float64 (12 bytes):
	// refuse a count the rest of the blob cannot hold before sizing the
	// map by it.
	if nPred > r.Remaining()/12 {
		return fmt.Errorf("core: framework snapshot claims %d predictions in %d bytes", nPred, r.Remaining())
	}
	lastPred := make(map[string]float64, nPred)
	for i := 0; i < nPred; i++ {
		lastPred[r.String()] = r.F64()
	}
	nSchemes := int(r.U32())
	if r.Err() != nil {
		return fmt.Errorf("core: truncated framework snapshot: %w", r.Err())
	}
	if nSchemes != len(f.schemes) {
		return fmt.Errorf("core: snapshot has %d schemes, framework has %d", nSchemes, len(f.schemes))
	}

	f.Reset(lastGood)

	f.lastEnv = lastEnv
	f.lastGood = lastGood
	f.hasLastGood = hasLastGood
	f.iod.Restore(iodetector.Memento{
		State:        iodetector.State(iodState),
		PendingState: iodetector.State(iodPending),
		PendingVotes: int(iodVotes),
		CellBaseline: iodBaseline,
		HaveBaseline: iodHave,
	})
	f.lastPred = lastPred

	for _, s := range f.schemes {
		name := r.String()
		blob := r.Bytes()
		if err := r.Err(); err != nil {
			return fmt.Errorf("core: truncated framework snapshot: %w", err)
		}
		if name != s.Name() {
			return fmt.Errorf("core: snapshot scheme %q does not match framework scheme %q", name, s.Name())
		}
		if len(blob) == 0 {
			continue
		}
		sc, ok := s.(schemes.StateCodec)
		if !ok {
			return fmt.Errorf("core: snapshot carries state for scheme %q which cannot restore it", name)
		}
		if err := sc.RestoreState(blob); err != nil {
			return fmt.Errorf("core: restore scheme %s: %w", name, err)
		}
	}
	return nil
}
