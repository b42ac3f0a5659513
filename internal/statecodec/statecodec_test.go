package statecodec

import (
	"bytes"
	"errors"
	"testing"
)

func TestBytesRefAliasesBuffer(t *testing.T) {
	body := []byte("particle set")
	b := AppendBytes(AppendU32(nil, 7), body)
	r := NewReader(b)
	if r.U32() != 7 {
		t.Fatal("prefix")
	}
	got := r.BytesRef()
	if !bytes.Equal(got, body) || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("BytesRef = %q, err %v, %d left", got, r.Err(), r.Remaining())
	}
	if &got[0] != &b[len(b)-len(body)] {
		t.Fatal("BytesRef copied")
	}
	if c := NewReader(b[4:]).Bytes(); &c[0] == &b[8] {
		t.Fatal("Bytes aliases the buffer")
	}
	short := NewReader(b[:len(b)-1])
	short.U32()
	if got := short.BytesRef(); got != nil || !errors.Is(short.Err(), ErrShort) {
		t.Fatalf("short buffer: %q, %v", got, short.Err())
	}
}
