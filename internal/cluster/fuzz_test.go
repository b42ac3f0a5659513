package cluster

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/rf"
)

// Native fuzz targets for the decoders of the replication and handoff
// links, which read bytes from other nodes. Each target must never
// panic. The delta and handoff-put codecs are canonical, so any input
// that decodes re-encodes to exactly itself; a subscription decodes to
// a map, so only decode→encode is a fixed point. Crashers found by
// `go test -fuzz` live under testdata/fuzz/ and run as regression cases
// with every plain `go test`.

func seedDelta() delta {
	return delta{mapID: 1, version: 42, batch: []fingerprint.Fingerprint{
		{Pos: geo.Pt(3.5, -1), Vec: rf.Vector{{ID: "ap-0", RSSI: -48.5}, {ID: "", RSSI: math.NaN()}}},
		{Pos: geo.Pt(0, 7.25)},
	}}
}

func FuzzDecodeDelta(f *testing.F) {
	for _, d := range []delta{seedDelta(), {}} {
		b, err := encodeDelta(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := decodeDelta(b)
		if err != nil {
			return
		}
		enc, err := encodeDelta(d)
		if err != nil {
			t.Fatalf("decoded delta does not encode: %v", err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("delta % x re-encodes as % x", b, enc)
		}
	})
}

func FuzzDecodeSubscribe(f *testing.F) {
	f.Add(encodeSubscribe(map[byte]uint64{1: 9, 2: 4}))
	f.Add(encodeSubscribe(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := decodeSubscribe(b)
		if err != nil {
			return
		}
		enc1 := encodeSubscribe(v)
		if v, err = decodeSubscribe(enc1); err != nil {
			t.Fatalf("re-encoded subscription does not decode: %v (% x)", err, enc1)
		}
		if enc2 := encodeSubscribe(v); !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding is not a fixed point:\n first  % x\n second % x", enc1, enc2)
		}
	})
}

// encodeHandoffPut is the push payload writeHandoffPut sends, without
// the frame header.
func encodeHandoffPut(t testing.TB, clientID string, seq uint32, state []byte) []byte {
	var buf bytes.Buffer
	if _, err := writeHandoffPut(&buf, nil, clientID, seq, state); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[5:]
}

func FuzzDecodeHandoffPut(f *testing.F) {
	f.Add(encodeHandoffPut(f, "phone-3", 41, []byte{1, 2, 3, 4}))
	f.Add(encodeHandoffPut(f, "", 0, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		clientID, seq, state, err := decodeHandoffPut(b)
		if err != nil {
			return
		}
		if enc := encodeHandoffPut(t, clientID, seq, state); !bytes.Equal(enc, b) {
			t.Fatalf("put % x re-encodes as % x", b, enc)
		}
	})
}
