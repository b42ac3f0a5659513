package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/rf"
)

// The replication link speaks its own framing, not the offload
// protocol's: a compaction delta carries a whole batch of fingerprints
// and would overflow the offload frame's uint16 length, and — crucially
// — RSSI travels as full float64 bits. The offload vector codec
// quantizes RSSI to 0.1 dB for phone uplinks; replaying a quantized
// batch would rebuild a follower snapshot whose Nearest distances
// diverge from the leader's in the last bits, breaking the
// bit-identity contract the cluster test pins.

// Replication frame types.
const (
	rmSubscribe byte = 1 // follower → leader: per-map current versions
	rmDelta     byte = 2 // leader → follower: one compaction batch
	rmSurvey    byte = 3 // follower → leader: forwarded crowdsourced point
	rmError     byte = 4 // leader → follower: terminal error message
)

// maxRepPayload bounds one replication frame (16 MiB — thousands of
// points per delta with room to spare; a frame beyond it is corrupt).
const maxRepPayload = 16 << 20

// ErrRepProtocol reports a malformed replication frame.
var ErrRepProtocol = errors.New("cluster: replication protocol error")

// writeRepFrame writes one [type][uint32 len][payload] frame.
func writeRepFrame(w io.Writer, t byte, payload []byte) error {
	if len(payload) > maxRepPayload {
		return fmt.Errorf("%w: frame payload %d exceeds %d", ErrRepProtocol, len(payload), maxRepPayload)
	}
	hdr := [5]byte{t}
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readRepFrame reads one replication frame.
func readRepFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxRepPayload {
		return 0, nil, fmt.Errorf("%w: frame payload %d exceeds %d", ErrRepProtocol, n, maxRepPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// delta is one map store compaction: the exact batch its version
// folded in.
type delta struct {
	mapID   byte
	version uint64
	batch   []fingerprint.Fingerprint
}

// encodeDelta packs a delta frame:
// [mapID][uint64 version][uint32 n]{point}*n where each point is
// [float64 x][float64 y][uint16 k]{[uint16 idLen][id][float64 rssi]}*k.
func encodeDelta(d delta) ([]byte, error) {
	size := 1 + 8 + 4
	for _, fp := range d.batch {
		size += 16 + 2
		for _, o := range fp.Vec {
			if len(o.ID) > math.MaxUint16 {
				return nil, fmt.Errorf("%w: transmitter ID %d bytes", ErrRepProtocol, len(o.ID))
			}
			size += 2 + len(o.ID) + 8
		}
	}
	out := make([]byte, 0, size)
	out = append(out, d.mapID)
	out = binary.BigEndian.AppendUint64(out, d.version)
	out = binary.BigEndian.AppendUint32(out, uint32(len(d.batch)))
	for _, fp := range d.batch {
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(fp.Pos.X))
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(fp.Pos.Y))
		out = binary.BigEndian.AppendUint16(out, uint16(len(fp.Vec)))
		for _, o := range fp.Vec {
			out = binary.BigEndian.AppendUint16(out, uint16(len(o.ID)))
			out = append(out, o.ID...)
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(o.RSSI))
		}
	}
	return out, nil
}

// decodeDelta unpacks a delta frame.
func decodeDelta(b []byte) (delta, error) {
	var d delta
	if len(b) < 13 {
		return d, fmt.Errorf("%w: short delta frame (%d bytes)", ErrRepProtocol, len(b))
	}
	d.mapID = b[0]
	d.version = binary.BigEndian.Uint64(b[1:])
	n := binary.BigEndian.Uint32(b[9:])
	b = b[13:]
	// A point takes at least 18 bytes and an observation 10, so a count
	// the rest of the frame cannot hold is corrupt: refused before it
	// sizes an allocation.
	if uint64(n)*18 > uint64(len(b)) {
		return d, fmt.Errorf("%w: delta of %d points in %d bytes", ErrRepProtocol, n, len(b))
	}
	d.batch = make([]fingerprint.Fingerprint, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 18 {
			return d, fmt.Errorf("%w: truncated delta point", ErrRepProtocol)
		}
		x := math.Float64frombits(binary.BigEndian.Uint64(b))
		y := math.Float64frombits(binary.BigEndian.Uint64(b[8:]))
		k := int(binary.BigEndian.Uint16(b[16:]))
		b = b[18:]
		if k*10 > len(b) {
			return d, fmt.Errorf("%w: truncated observation", ErrRepProtocol)
		}
		vec := make(rf.Vector, 0, k)
		for j := 0; j < k; j++ {
			if len(b) < 2 {
				return d, fmt.Errorf("%w: truncated observation", ErrRepProtocol)
			}
			idLen := int(binary.BigEndian.Uint16(b))
			if len(b) < 2+idLen+8 {
				return d, fmt.Errorf("%w: truncated observation", ErrRepProtocol)
			}
			id := string(b[2 : 2+idLen])
			rssi := math.Float64frombits(binary.BigEndian.Uint64(b[2+idLen:]))
			b = b[2+idLen+8:]
			vec = append(vec, rf.Obs{ID: id, RSSI: rssi})
		}
		d.batch = append(d.batch, fingerprint.Fingerprint{Pos: geo.Pt(x, y), Vec: vec})
	}
	if len(b) != 0 {
		return d, fmt.Errorf("%w: %d trailing delta bytes", ErrRepProtocol, len(b))
	}
	return d, nil
}

// encodeSubscribe packs a follower's subscription: [uint16 n]{[mapID]
// [uint64 version]}*n, the version each of its stores is currently at
// (the leader streams everything newer).
func encodeSubscribe(versions map[byte]uint64) []byte {
	out := make([]byte, 0, 2+len(versions)*9)
	out = binary.BigEndian.AppendUint16(out, uint16(len(versions)))
	// Deterministic order: map IDs are single bytes, walk the space.
	for id := 0; id < 256; id++ {
		v, ok := versions[byte(id)]
		if !ok {
			continue
		}
		out = append(out, byte(id))
		out = binary.BigEndian.AppendUint64(out, v)
	}
	return out
}

// decodeSubscribe unpacks a subscription frame.
func decodeSubscribe(b []byte) (map[byte]uint64, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: short subscribe frame", ErrRepProtocol)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) != n*9 {
		return nil, fmt.Errorf("%w: subscribe frame %d bytes for %d maps", ErrRepProtocol, len(b), n)
	}
	out := make(map[byte]uint64, n)
	for i := 0; i < n; i++ {
		out[b[0]] = binary.BigEndian.Uint64(b[1:])
		b = b[9:]
	}
	return out, nil
}
