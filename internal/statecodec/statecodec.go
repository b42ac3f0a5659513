// Package statecodec holds the little-endian append/read primitives
// shared by every layer of the session-migration state codec: scheme
// state blobs (internal/schemes), framework snapshots (internal/core),
// and the offload SessionState envelope. One primitive set keeps the
// wire layouts trivially composable and the decode error handling
// uniform (a Reader latches its first error and returns zero values
// afterwards, so decoders can be written straight-line).
package statecodec

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrShort reports a truncated buffer.
var ErrShort = errors.New("statecodec: short buffer")

// AppendU8 appends one byte.
func AppendU8(dst []byte, v byte) []byte { return append(dst, v) }

// AppendBool appends a bool as one byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendU32 appends a little-endian uint32.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendI64 appends a little-endian int64.
func AppendI64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

// AppendF64 appends a float64 as its IEEE-754 bits.
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendBytes appends a uint32 length prefix and the bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// OpenBytes starts a length-prefixed byte field whose body the caller
// then appends in place: it reserves the uint32 prefix and returns the
// body's start offset for CloseBytes. The pair writes exactly what
// AppendBytes writes, without building the body in a buffer of its
// own first.
func OpenBytes(dst []byte) ([]byte, int) {
	dst = append(dst, 0, 0, 0, 0)
	return dst, len(dst)
}

// CloseBytes back-patches the length prefix of the field OpenBytes
// opened at body offset start, ending the body at len(dst).
func CloseBytes(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start))
	return dst
}

// AppendString appends a uint32 length prefix and the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// Reader decodes a buffer written with the Append helpers. The first
// failure latches; every later call returns a zero value, so callers
// check Err once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps b for reading.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrShort
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a uint32-prefixed byte slice (copied).
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// BytesRef reads a uint32-prefixed byte slice like Bytes, but returns
// it as a subslice of the reader's buffer instead of a copy. Use it
// only when the caller owns that buffer and never reuses it.
func (r *Reader) BytesRef() []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	return r.take(n)
}

// String reads a uint32-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	if r.err != nil {
		return ""
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
