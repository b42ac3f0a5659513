package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/imu"
	"repro/internal/noise"
	"repro/internal/prng"
	"repro/internal/regress"
	"repro/internal/rf"
	"repro/internal/schemes"
	"repro/internal/sensing"
	"repro/internal/statecodec"
	"repro/internal/world"
)

// snapshotWorld builds a corridor world with real stateful schemes —
// WiFi fingerprinting (HMM tracker), PDR and fusion (particle filters
// over tracked RNG streams) — the full mutable surface Snapshot must
// capture.
func snapshotWorld(t testing.TB) (FrameworkFactory, *world.World) {
	t.Helper()
	w := &world.World{
		Name:  "snapshot",
		Noise: noise.Field{Seed: 8},
		Proj:  geo.Projection{Origin: geo.LatLon{Lat: 1.3, Lon: 103.7}},
		Regions: []world.Region{
			{Name: "hall", Kind: world.KindOffice, Poly: geo.RectPoly(0, 0, 40, 4), SkyOpenness: 0.05, LightLux: 300, MagNoise: 2, CorridorWidth: 2.5},
		},
		APs: []world.Site{
			{ID: "a0", Pos: geo.Pt(5, 3), TxPowerDBm: 16},
			{ID: "a1", Pos: geo.Pt(20, 1), TxPowerDBm: 16},
			{ID: "a2", Pos: geo.Pt(35, 3), TxPowerDBm: 16},
		},
	}
	db := fingerprint.Survey(w, rf.WiFiModel(), w.APs, 3, rand.New(rand.NewSource(1)))
	ms := NewModelSet()
	for _, name := range []string{schemes.NameWiFi, schemes.NameMotion, schemes.NameFusion} {
		for _, env := range []EnvClass{EnvIndoor, EnvOutdoor} {
			ms.Put(&ErrorModel{
				Scheme: name, Env: env, Features: nil,
				Reg: &regress.Result{HasIntercept: true, Intercept: 3, ResidStd: 2},
			})
		}
	}
	factory := func() (*Framework, error) {
		pdrSrc := prng.New(2)
		pdr := schemes.NewPDR(w, schemes.DefaultPDRConfig(), rand.New(pdrSrc))
		pdr.TrackSource(pdrSrc)
		fusionSrc := prng.New(3)
		fusion := schemes.NewFusion(w, db, schemes.DefaultFusionConfig(), rand.New(fusionSrc))
		fusion.TrackSource(fusionSrc)
		ss := []schemes.Scheme{
			schemes.NewWiFi(db),
			pdr,
			fusion,
		}
		return NewFramework(ss, ms)
	}
	return factory, w
}

func snapshotWalk(w *world.World, epochs int) (geo.Point, []*sensing.Snapshot) {
	rnd := rand.New(rand.NewSource(40))
	model := rf.WiFiModel()
	start := geo.Pt(2, 1)
	pos := start
	snaps := make([]*sensing.Snapshot, 0, epochs)
	for i := 0; i < epochs; i++ {
		pos = pos.Add(geo.Pt(0.7, 0))
		snaps = append(snaps, &sensing.Snapshot{
			Epoch:    i,
			WiFi:     model.Scan(w, w.APs, pos, rf.Reference(), rnd),
			Step:     &imu.StepEvent{LengthM: 0.7, HeadingR: 0, PeriodS: 0.5},
			LightLux: 300,
			MagVarUT: 2.2,
		})
	}
	return start, snaps
}

func sameStep(a, b StepResult) bool {
	return math.Float64bits(a.Best.X) == math.Float64bits(b.Best.X) &&
		math.Float64bits(a.Best.Y) == math.Float64bits(b.Best.Y) &&
		math.Float64bits(a.BMA.X) == math.Float64bits(b.BMA.X) &&
		math.Float64bits(a.BMA.Y) == math.Float64bits(b.BMA.Y) &&
		a.OK == b.OK && a.BestIdx == b.BestIdx && a.Env == b.Env
}

// TestSnapshotRestoreBitIdentical is the foundation of cross-node
// session migration: a walk snapshotted mid-stream and restored into
// a fresh framework (same factory — a different node's session) must
// produce Float64bits-equal ensemble outputs to the uninterrupted
// walk, and taking the snapshot must not perturb the origin.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	factory, w := snapshotWorld(t)
	start, snaps := snapshotWalk(w, 24)
	const cut = 9 // mid-walk, after the trackers and filters carry real state

	ref, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	ref.Reset(start)
	want := make([]StepResult, len(snaps))
	for i, snap := range snaps {
		want[i] = ref.Step(snap)
	}

	origin, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	origin.Reset(start)
	for i := 0; i < cut; i++ {
		if got := origin.Step(snaps[i]); !sameStep(got, want[i]) {
			t.Fatalf("pre-cut epoch %d diverged before any snapshot", i)
		}
	}
	blob, err := origin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The origin keeps walking, unperturbed by the snapshot.
	migrated, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	if err := migrated.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < len(snaps); i++ {
		if got := origin.Step(snaps[i]); !sameStep(got, want[i]) {
			t.Errorf("origin epoch %d diverged after snapshot was taken", i)
		}
		if got := migrated.Step(snaps[i]); !sameStep(got, want[i]) {
			t.Errorf("migrated epoch %d diverged from uninterrupted walk: got (%v,%v) want (%v,%v)",
				i, got.BMA.X, got.BMA.Y, want[i].BMA.X, want[i].BMA.Y)
		}
	}
}

// TestSnapshotRoundTripsRepeatedly pins that Snapshot→Restore can
// chain every epoch (the per-epoch shipping pattern) without drift.
func TestSnapshotRoundTripsRepeatedly(t *testing.T) {
	factory, w := snapshotWorld(t)
	start, snaps := snapshotWalk(w, 12)

	ref, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	ref.Reset(start)

	cur, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	cur.Reset(start)
	for i, snap := range snaps {
		want := ref.Step(snap)
		got := cur.Step(snap)
		if !sameStep(got, want) {
			t.Fatalf("epoch %d diverged under per-epoch migration", i)
		}
		blob, err := cur.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		next, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		if err := next.Restore(blob); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
}

// TestRestoreRejectsMismatchedSchemes pins the safety rail: a blob
// from a different scheme lineup must be rejected, not half-applied.
func TestRestoreRejectsMismatchedSchemes(t *testing.T) {
	factory, w := snapshotWorld(t)
	start, _ := snapshotWalk(w, 1)
	fw, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	fw.Reset(start)
	blob, err := fw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other, err := NewFramework([]schemes.Scheme{&fakeScheme{name: "other", ok: true, pos: geo.Pt(1, 1)}}, NewModelSet())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(blob); err == nil {
		t.Fatal("restore of mismatched scheme list must fail")
	}
}

// TestRestoreRefusesOversizedCounts: a blob's counts are untrusted, so
// each is checked against the bytes left before it sizes any memory.
// The 38-byte blob claims 2²⁶ gating predictions; sizing the map by
// that hint used to take seconds and gigabytes before the refusal.
// The scheme blobs claim 2²⁰ particles and belief entries in a few
// bytes. Every refusal must come fast and allocate far less than the
// claims would.
func TestRestoreRefusesOversizedCounts(t *testing.T) {
	factory, w := snapshotWorld(t)
	start, _ := snapshotWalk(w, 1)
	fw, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	fw.Reset(start)

	header := []byte{snapshotVersion}
	header = statecodec.AppendU8(header, byte(EnvIndoor))
	header = statecodec.AppendF64(header, start.X)
	header = statecodec.AppendF64(header, start.Y)
	header = statecodec.AppendBool(header, true)
	header = append(header, 0, 0) // IODetector state, pending state
	header = statecodec.AppendU32(header, 0)
	header = statecodec.AppendF64(header, 0)
	header = statecodec.AppendBool(header, false)
	lastPred := statecodec.AppendU32(header, 1<<26)
	if len(lastPred) != 38 {
		t.Fatalf("lastPred blob is %d bytes, want 38", len(lastPred))
	}

	// Scheme blobs: RNG position, then a particle filter claiming 2²⁰
	// particles (PDR, fusion); version, tracker flags and positions,
	// then a belief claiming 2²⁰ entries (WiFi).
	particles := statecodec.AppendI64(nil, 2)
	particles = statecodec.AppendU64(particles, 0)
	particles = statecodec.AppendBool(particles, true)
	particles = statecodec.AppendU32(particles, 1<<20)
	belief := statecodec.AppendU64(nil, 0)
	belief = statecodec.AppendBool(belief, true)
	for i := 0; i < 4; i++ {
		belief = statecodec.AppendF64(belief, 1)
	}
	belief = statecodec.AppendU32(belief, 1<<20)

	restore := func(i int) func([]byte) error {
		return fw.schemes[i].(schemes.StateCodec).RestoreState
	}
	for _, tc := range []struct {
		name    string
		restore func([]byte) error
		blob    []byte
	}{
		{"lastPred", fw.Restore, lastPred},
		{"wifi-belief", restore(0), belief},
		{"pdr-particles", restore(1), particles},
		{"fusion-particles", restore(2), particles},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			err := tc.restore(tc.blob)
			took := time.Since(t0)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("restore accepted a count the blob cannot hold")
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Errorf("refusal allocated %d bytes for a %d-byte blob", alloc, len(tc.blob))
			}
			if took > 200*time.Millisecond {
				t.Errorf("refusal took %v", took)
			}
		})
	}
}

// snapshotRef is Framework.Snapshot as it was before schemes appended
// their state in place: each scheme blob built in a buffer of its own
// and copied in behind its length. The golden test below holds the
// in-place encoder to its bytes.
func snapshotRef(f *Framework) ([]byte, error) {
	dst := []byte{snapshotVersion}
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
		var blob []byte
		if sc, ok := s.(schemes.StateCodec); ok {
			var err error
			if blob, err = sc.AppendState(nil); err != nil {
				return nil, err
			}
		}
		dst = statecodec.AppendBytes(dst, blob)
	}
	return dst, nil
}

// TestSnapshotMatchesReferenceEncoder pins the in-place encoder to the
// reference bytes every epoch of a walk, appended after a prefix too.
func TestSnapshotMatchesReferenceEncoder(t *testing.T) {
	factory, w := snapshotWorld(t)
	start, snaps := snapshotWalk(w, 20)
	fw, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	fw.Reset(start)
	prefix := []byte("prefix")
	for i, snap := range snaps {
		fw.Step(snap)
		want, err := snapshotRef(fw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fw.AppendSnapshot(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("epoch %d: AppendSnapshot differs from the reference encoding", i)
		}
	}
}
