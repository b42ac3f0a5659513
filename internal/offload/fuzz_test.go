package offload

import (
	"bytes"
	"testing"

	"repro/internal/gnss"
	"repro/internal/imu"
	"repro/internal/rf"
	"repro/internal/sensing"
	"repro/internal/telemetry/trace"
)

// Native fuzz targets for every decoder of untrusted bytes in the
// package. Each target must never panic; where a codec is canonical, a
// decoded value re-encodes to a fixed point: encode(decode(encode(v)))
// equals encode(v). Comparing encodings rather than decoded structs
// keeps NaN payloads comparable. Crashers found by `go test -fuzz`
// live under testdata/fuzz/ and run as regression cases with every
// plain `go test`.

// shortContext is the 13-byte epoch header without a sequence number,
// which the decoder must refuse; every target is seeded with it.
func shortContext() []byte {
	return EncodeContextSeq(seedSnapshot(), 0)[:13]
}

func seedSnapshot() *sensing.Snapshot {
	return &sensing.Snapshot{Epoch: 77, LightLux: 320.5, MagVarUT: 2.25, GPSEnabled: true}
}

func seedVector() rf.Vector {
	return rf.Vector{{ID: "ap-0", RSSI: -48.5}, {ID: "ap-1", RSSI: -71}, {ID: "", RSSI: 0}}
}

// addSeeds registers the given encoder outputs plus the short context.
func addSeeds(f *testing.F, seeds ...[]byte) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add(shortContext())
	f.Add([]byte{})
}

// roundTrip is the body of a fuzz target for a canonical codec: input
// that decodes must re-encode to a fixed point of decode then encode.
func roundTrip[T any](decode func([]byte) (T, error), encode func(T) []byte) func(*testing.T, []byte) {
	return func(t *testing.T, b []byte) {
		v, err := decode(b)
		if err != nil {
			return
		}
		enc1 := encode(v)
		v, err = decode(enc1)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v (% x)", err, enc1)
		}
		if enc2 := encode(v); !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding is not a fixed point:\n first  % x\n second % x", enc1, enc2)
		}
	}
}

func FuzzDecodeContextFull(f *testing.F) {
	tr := trace.New(trace.Config{Seed: 5})
	tctx := trace.SpanContext{Trace: tr.NewTraceID(), Span: tr.NewSpanID()}
	addSeeds(f,
		EncodeContextSeq(seedSnapshot(), 9),
		EncodeContextTrace(seedSnapshot(), 9, tctx),
		EncodeContextTrace(seedSnapshot(), 0, trace.SpanContext{}),
	)
	// The frame length picks the encoder, so both forms are canonical.
	type header struct {
		b   []byte
		s   *sensing.Snapshot
		seq uint32
		tc  trace.SpanContext
	}
	decode := func(b []byte) (header, error) {
		s, seq, tc, err := DecodeContextFull(b)
		return header{b, s, seq, tc}, err
	}
	encode := func(h header) []byte {
		if len(h.b) > contextBytes {
			return EncodeContextTrace(h.s, h.seq, h.tc)
		}
		return EncodeContextSeq(h.s, h.seq)
	}
	check := roundTrip(decode, encode)
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, _, _, err := DecodeContextFull(b); err == nil && len(b) != contextBytes && len(b) != contextBytes+trace.ContextBytes {
			t.Fatalf("accepted a %d-byte context", len(b))
		}
		check(t, b)
	})
}

func FuzzDecodeHello(f *testing.F) {
	addSeeds(f,
		EncodeHello(&Hello{Version: ProtocolVersion, StartX: 12.5, StartY: -3, ClientID: "phone-1"}),
		EncodeHello(&Hello{Version: 4}),
	)
	f.Fuzz(roundTrip(DecodeHello, EncodeHello))
}

func FuzzDecodeWelcome(f *testing.F) {
	addSeeds(f,
		EncodeWelcome(&Welcome{Version: ProtocolVersion, OK: true, SessionID: 7, Resumed: true}),
		EncodeWelcome(&Welcome{Version: ProtocolVersion, Reason: "offload: server full"}),
	)
	f.Fuzz(roundTrip(DecodeWelcome, EncodeWelcome))
}

func FuzzDecodeResult(f *testing.F) {
	addSeeds(f,
		EncodeResult(&Result{X: 1.5, Y: -2, BestX: 3, BestY: 4, Selected: "fusion", Env: 1, OK: true}),
		EncodeResult(&Result{}),
	)
	f.Fuzz(roundTrip(DecodeResult, EncodeResult))
}

func FuzzDecodeSurvey(f *testing.F) {
	addSeeds(f,
		EncodeSurvey(&Survey{Map: MapWiFi, X: 3.25, Y: 1, Vec: seedVector()}),
		EncodeSurvey(&Survey{Map: MapCellular}),
	)
	f.Fuzz(roundTrip(DecodeSurvey, EncodeSurvey))
}

func FuzzDecodeVector(f *testing.F) {
	addSeeds(f, EncodeVector(seedVector()), EncodeVector(nil))
	f.Fuzz(roundTrip(DecodeVector, EncodeVector))
}

func FuzzDecodeStep(f *testing.F) {
	addSeeds(f,
		EncodeStep(&imu.StepEvent{HeadingR: -1.2345, LengthM: 0.72}),
		EncodeStep(&imu.StepEvent{HeadingR: 3.1, LengthM: 700}),
	)
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := DecodeStep(b)
		if err != nil {
			return
		}
		// Four bytes are the whole wire form, and every value is legal.
		if enc := EncodeStep(e); !bytes.Equal(enc, b) {
			t.Fatalf("step % x re-encodes as % x", b, enc)
		}
	})
}

func FuzzDecodeFix(f *testing.F) {
	fix := &gnss.Fix{NumSats: 9, HDOP: 1.13}
	fix.Pos.Lat, fix.Pos.Lon = 1.2966, 103.7764
	addSeeds(f, EncodeFix(fix), EncodeFix(&gnss.Fix{}))
	f.Fuzz(roundTrip(DecodeFix, EncodeFix))
}

func FuzzDecodeLandmark(f *testing.F) {
	lm := &sensing.LandmarkHit{ID: "door-3", Kind: "door"}
	lm.Pos.X, lm.Pos.Y = 10.5, 2
	addSeeds(f, EncodeLandmark(lm), EncodeLandmark(&sensing.LandmarkHit{}))
	f.Fuzz(roundTrip(DecodeLandmark, EncodeLandmark))
}

func FuzzDecodeSessionState(f *testing.F) {
	addSeeds(f,
		EncodeSessionState(&SessionState{
			ClientID: "phone-42", Proto: ProtocolVersion, Seq: 17,
			Replay:  []ReplayEntry{{Seq: 16, Payload: []byte("r16")}, {Seq: 17, Payload: []byte("r17")}},
			MapVers: map[byte]uint64{MapWiFi: 9, MapCellular: 4},
			FW:      []byte{1, 2, 3, 4},
		}),
		EncodeSessionState(&SessionState{}),
	)
	f.Fuzz(roundTrip(DecodeSessionState, EncodeSessionState))
}
