package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/logic"
)

// Writer appends the codec primitives every binary format in the system
// is built from — wire snapshots and deltas, checkpoint artifacts, fleet
// frame bodies, and learned-bound blobs: unsigned and zigzag-signed
// varints, length-prefixed strings and blobs, raw bytes, and manifest
// term records. Buf is the encoding so far.
type Writer struct {
	Buf []byte
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }

// Varint appends a zigzag-signed varint.
func (w *Writer) Varint(v int64) { w.Buf = binary.AppendVarint(w.Buf, v) }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.Buf = append(w.Buf, b) }

// Raw appends bytes with no length prefix.
func (w *Writer) Raw(b []byte) { w.Buf = append(w.Buf, b...) }

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Blob appends length-prefixed bytes.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Term appends one manifest term record: its tag byte and payload (see
// the package's "Wire format" section). Reader.Term parses it.
func (w *Writer) Term(t logic.Term) {
	switch x := t.(type) {
	case logic.Constant:
		w.Byte('c')
		w.Str(string(x))
	case logic.Fresh:
		w.Byte('f')
		w.Varint(int64(x))
	case *logic.Null:
		w.Byte('n')
		w.Uvarint(uint64(x.ID()))
		w.Uvarint(uint64(x.Depth()))
	case logic.Variable:
		// Instances are normally ground, but the codec is total: a
		// variable must not fall into the foreign branch, whose
		// built-in "v\x00" key the decoder categorically rejects.
		w.Byte('v')
		w.Str(string(x))
	default:
		w.Byte('o')
		w.Str(t.Key())
		w.Str(t.String())
	}
}

// Reader is a bounds-checked cursor over one encoding. Every failure
// wraps the sentinel the caller supplied, so each format keeps its own
// errors.Is target; an error value is built only when decoding fails.
// Varints must be canonical (minimal length): an overlong varint is
// rejected, which keeps decode∘encode the identity on every encoding a
// Reader accepts.
type Reader struct {
	data     []byte
	pos      int
	sentinel error
}

// NewReader returns a Reader over data whose errors wrap sentinel.
func NewReader(data []byte, sentinel error) Reader {
	return Reader{data: data, sentinel: sentinel}
}

// remaining reports the number of unread bytes.
func (r *Reader) remaining() int { return len(r.data) - r.pos }

// Done rejects trailing bytes: a valid encoding is consumed exactly.
func (r *Reader) Done() error {
	if r.pos != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", r.sentinel, r.remaining())
	}
	return nil
}

// varint checks a binary.Uvarint/Varint result at the cursor and
// advances past it: n <= 0 is truncation or overflow, and a final zero
// byte after the first marks a non-minimal encoding.
func (r *Reader) varint(n int, what string) error {
	if n <= 0 {
		return fmt.Errorf("%w: bad %s varint", r.sentinel, what)
	}
	if n > 1 && r.data[r.pos+n-1] == 0 {
		return fmt.Errorf("%w: non-canonical %s varint", r.sentinel, what)
	}
	r.pos += n
	return nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	return v, r.varint(n, what)
}

// Varint reads a zigzag-signed varint.
func (r *Reader) Varint(what string) (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	return v, r.varint(n, what)
}

// Count reads an unsigned varint capped at math.MaxInt32; every count,
// index, and id goes through it (or Records), which bounds what hostile
// input can make a decoder allocate.
func (r *Reader) Count(what string) (int, error) {
	v, err := r.Uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: %s %d out of range", r.sentinel, what, v)
	}
	return int(v), nil
}

// Records is Count for section sizes: every record costs at least one
// byte, so a count larger than the remaining input is corrupt — rejected
// here, before any count-sized allocation happens.
func (r *Reader) Records(what string) (int, error) {
	n, err := r.Count(what)
	if err != nil {
		return 0, err
	}
	if n > r.remaining() {
		return 0, fmt.Errorf("%w: %s %d exceeds remaining input", r.sentinel, what, n)
	}
	return n, nil
}

// Byte reads one raw byte.
func (r *Reader) Byte(what string) (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("%w: truncated %s", r.sentinel, what)
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

// Raw reads n bytes with no length prefix. The result aliases the
// input (capacity-limited, so appending to it cannot clobber the rest).
func (r *Reader) Raw(n int, what string) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("%w: truncated %s", r.sentinel, what)
	}
	b := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b, nil
}

// Blob reads length-prefixed bytes, aliasing the input like Raw.
func (r *Reader) Blob(what string) ([]byte, error) {
	n, err := r.Count(what)
	if err != nil {
		return nil, err
	}
	return r.Raw(n, what)
}

// Str reads a length-prefixed string.
func (r *Reader) Str(what string) (string, error) {
	b, err := r.Blob(what)
	return string(b), err
}

// Term parses one manifest term record written by Writer.Term. Null
// records go through resolve with their factory id and depth, because
// null identity is the caller's: the wire Decoder materializes nulls
// through its stream's factory only after the whole section validates,
// while a checkpoint resolves them against its snapshot's nulls. A
// foreign record carrying a built-in kind's identity key is rejected:
// interning it as foreign would mint a second symbol id for an existing
// identity.
func (r *Reader) Term(resolve func(id, depth int) (logic.Term, error)) (logic.Term, error) {
	tag, err := r.Byte("term tag")
	if err != nil {
		return nil, err
	}
	switch tag {
	case 'c':
		s, err := r.Str("constant")
		return logic.Constant(s), err
	case 'f':
		v, err := r.Varint("fresh value")
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt32 || v < math.MinInt32 {
			return nil, fmt.Errorf("%w: fresh value %d out of range", r.sentinel, v)
		}
		return logic.Fresh(v), nil
	case 'n':
		id, err := r.Count("null id")
		if err != nil {
			return nil, err
		}
		depth, err := r.Count("null depth")
		if err != nil {
			return nil, err
		}
		return resolve(id, depth)
	case 'v':
		s, err := r.Str("variable")
		return logic.Variable(s), err
	case 'o':
		key, err := r.Str("foreign key")
		if err != nil {
			return nil, err
		}
		rendering, err := r.Str("foreign rendering")
		if err != nil {
			return nil, err
		}
		if builtinKeyPrefix(key) {
			return nil, fmt.Errorf("%w: foreign term with built-in identity key %q", r.sentinel, key)
		}
		return opaque{key: key, str: rendering}, nil
	}
	return nil, fmt.Errorf("%w: unknown term tag %q", r.sentinel, tag)
}
