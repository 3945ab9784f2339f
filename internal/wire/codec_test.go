package wire

import (
	"errors"
	"testing"
)

var errProbe = errors.New("probe: corrupt")

// TestReaderRejects drives each Reader primitive through the defects it
// exists to catch. Every failure must wrap the caller's sentinel (and
// only it: the wire package's own sentinel stays out of other formats'
// errors).
func TestReaderRejects(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(r *Reader) error
	}{
		{"overlong uvarint", []byte{0x80, 0x00}, func(r *Reader) error { _, err := r.Uvarint("v"); return err }},
		{"overlong uvarint, 10 bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, func(r *Reader) error { _, err := r.Uvarint("v"); return err }},
		{"overlong zigzag varint", []byte{0x81, 0x00}, func(r *Reader) error { _, err := r.Varint("v"); return err }},
		{"overlong count", []byte{0x83, 0x80, 0x00}, func(r *Reader) error { _, err := r.Count("n"); return err }},
		{"truncated varint", []byte{0x80}, func(r *Reader) error { _, err := r.Uvarint("v"); return err }},
		{"varint overflow", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02}, func(r *Reader) error { _, err := r.Uvarint("v"); return err }},
		{"count above MaxInt32", []byte{0x80, 0x80, 0x80, 0x80, 0x08}, func(r *Reader) error { _, err := r.Count("n"); return err }},
		{"records beyond input", []byte{0x03, 0x00, 0x00}, func(r *Reader) error { _, err := r.Records("n"); return err }},
		{"truncated string", []byte{0x03, 'a', 'b'}, func(r *Reader) error { _, err := r.Str("s"); return err }},
		{"truncated blob", []byte{0x02, 'a'}, func(r *Reader) error { _, err := r.Blob("b"); return err }},
		{"huge blob length", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x07}, func(r *Reader) error { _, err := r.Blob("b"); return err }},
		{"truncated raw", []byte{1, 2}, func(r *Reader) error { _, err := r.Raw(3, "raw"); return err }},
		{"missing byte", nil, func(r *Reader) error { _, err := r.Byte("b"); return err }},
		{"trailing bytes", []byte{0x01, 0x00}, func(r *Reader) error {
			if _, err := r.Uvarint("v"); err != nil {
				return nil // the wrong failure: let the check below report it
			}
			return r.Done()
		}},
		{"fresh beyond int32", []byte{'f', 0x80, 0x80, 0x80, 0x80, 0x10}, func(r *Reader) error { _, err := r.Term(nil); return err }},
		{"unknown term tag", []byte{'x'}, func(r *Reader) error { _, err := r.Term(nil); return err }},
		{"foreign with built-in key", []byte{'o', 3, 'c', 0, 'a', 1, 'a'}, func(r *Reader) error { _, err := r.Term(nil); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.data, errProbe)
			err := tc.read(&r)
			if !errors.Is(err, errProbe) {
				t.Fatalf("err = %v, want one wrapping the caller's sentinel", err)
			}
			if errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v wraps wire.ErrCorrupt, want only the caller's sentinel", err)
			}
		})
	}
}

// TestReaderAcceptsCanonical: the minimal encodings next to the rejected
// overlong ones decode, and everything Writer emits reads back exactly.
func TestReaderAcceptsCanonical(t *testing.T) {
	w := &Writer{}
	w.Uvarint(0)
	w.Uvarint(128) // 0x80 0x01: a multi-byte varint whose last byte is not zero
	w.Varint(-1)
	w.Varint(64)
	w.Uvarint(1<<31 - 1)
	w.Str("héllo")
	w.Blob(nil)
	w.Byte(7)
	w.Raw([]byte{1, 2})
	r := NewReader(w.Buf, errProbe)
	if v, err := r.Uvarint("a"); v != 0 || err != nil {
		t.Fatalf("Uvarint = %d, %v", v, err)
	}
	if v, err := r.Uvarint("b"); v != 128 || err != nil {
		t.Fatalf("Uvarint = %d, %v", v, err)
	}
	if v, err := r.Varint("c"); v != -1 || err != nil {
		t.Fatalf("Varint = %d, %v", v, err)
	}
	if v, err := r.Varint("d"); v != 64 || err != nil {
		t.Fatalf("Varint = %d, %v", v, err)
	}
	if v, err := r.Count("e"); v != 1<<31-1 || err != nil {
		t.Fatalf("Count = %d, %v", v, err)
	}
	if s, err := r.Str("f"); s != "héllo" || err != nil {
		t.Fatalf("Str = %q, %v", s, err)
	}
	if b, err := r.Blob("g"); len(b) != 0 || err != nil {
		t.Fatalf("Blob = %x, %v", b, err)
	}
	if b, err := r.Byte("h"); b != 7 || err != nil {
		t.Fatalf("Byte = %d, %v", b, err)
	}
	raw, err := r.Raw(2, "i")
	if err != nil || raw[0] != 1 || raw[1] != 2 {
		t.Fatalf("Raw = %x, %v", raw, err)
	}
	if cap(raw) != 2 {
		t.Fatalf("Raw capacity %d, want it limited to the 2 bytes read", cap(raw))
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}
