package qos

import (
	"errors"
	"fmt"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/wire"
)

// ErrCorrupt reports a learned-bound blob that is not a canonical
// encoding.
var ErrCorrupt = errors.New("qos: corrupt learned-bound encoding")

// maxEncodedBounds caps the records one blob may carry. There are three
// chase variants, and the canonical form forbids duplicates, so any
// larger count is corrupt by construction.
const maxEncodedBounds = 8

// EncodeBounds renders a fingerprint's learned bounds in the wire
// codec's varint vocabulary: a uvarint record count, then per record the
// variant byte, uvarint rounds, uvarint atoms, and an observed byte
// (0/1). Records must be sorted by strictly increasing variant —
// compile.Cache.Bounds returns exactly that shape — so the encoding is
// canonical: DecodeBounds rejects anything else, and re-encoding a
// decoded blob reproduces it byte for byte. The fleet coordinator ships
// this blob to cold workers alongside the ontology pull.
func EncodeBounds(bounds []compile.VariantBound) []byte {
	if len(bounds) == 0 {
		return nil
	}
	w := &wire.Writer{}
	w.Uvarint(uint64(len(bounds)))
	for _, vb := range bounds {
		w.Byte(byte(vb.Variant))
		w.Uvarint(uint64(vb.Bound.Rounds))
		w.Uvarint(uint64(vb.Bound.Atoms))
		w.Bool(vb.Bound.Observed)
	}
	return w.Buf
}

// DecodeBounds parses an EncodeBounds blob, rejecting non-canonical
// input: unknown variants, out-of-order or duplicate records, counter
// overflow, overlong varints, truncation, and trailing bytes all fail
// with ErrCorrupt. An empty blob decodes to nil.
func DecodeBounds(data []byte) ([]compile.VariantBound, error) {
	if len(data) == 0 {
		return nil, nil
	}
	r := wire.NewReader(data, ErrCorrupt)
	count, err := r.Count("count")
	if err != nil {
		return nil, err
	}
	if count == 0 || count > maxEncodedBounds {
		return nil, fmt.Errorf("%w: record count %d", ErrCorrupt, count)
	}
	out := make([]compile.VariantBound, 0, count)
	prev := chase.Variant(-1)
	for range count {
		b, err := r.Enum(byte(chase.Restricted)+1, "variant")
		if err != nil {
			return nil, err
		}
		v := chase.Variant(b)
		if v <= prev {
			return nil, fmt.Errorf("%w: variants out of order", ErrCorrupt)
		}
		prev = v
		rounds, err := r.Count("rounds")
		if err != nil {
			return nil, err
		}
		atoms, err := r.Count("atoms")
		if err != nil {
			return nil, err
		}
		observed, err := r.Enum(2, "observed flag")
		if err != nil {
			return nil, err
		}
		out = append(out, compile.VariantBound{
			Variant: v,
			Bound:   compile.LearnedBound{Rounds: rounds, Atoms: atoms, Observed: observed == 1},
		})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// Encode appends the budget in the wire codec's vocabulary: uvarint
// atoms, rounds, and wall nanoseconds. ReadBudget parses it.
func (b Budget) Encode(w *wire.Writer) {
	w.Uvarint(uint64(b.Atoms))
	w.Uvarint(uint64(b.Rounds))
	w.Uvarint(uint64(b.Wall))
}

// ReadBudget reads what Budget.Encode wrote; every failure wraps r's
// sentinel, and an accepted budget re-encodes to the same bytes.
func ReadBudget(r *wire.Reader) (Budget, error) {
	var b Budget
	var err error
	if b.Atoms, err = r.Count("budget atoms"); err != nil {
		return b, err
	}
	if b.Rounds, err = r.Count("budget rounds"); err != nil {
		return b, err
	}
	b.Wall, err = r.Duration("budget wall")
	return b, err
}

// Encode appends the policy: the mode byte, uvarint deadline
// nanoseconds, uvarint round quota, and the learn flag (0/1).
// ReadPolicy parses it.
func (p Policy) Encode(w *wire.Writer) {
	w.Byte(byte(p.Mode))
	w.Uvarint(uint64(p.Deadline))
	w.Uvarint(uint64(p.Rounds))
	w.Bool(p.Learn)
}

// ReadPolicy reads what Policy.Encode wrote, rejecting unknown modes;
// every failure wraps r's sentinel.
func ReadPolicy(r *wire.Reader) (Policy, error) {
	var p Policy
	mode, err := r.Enum(byte(Anytime)+1, "QoS mode")
	if err != nil {
		return p, err
	}
	p.Mode = Mode(mode)
	if p.Deadline, err = r.Duration("QoS deadline"); err != nil {
		return p, err
	}
	if p.Rounds, err = r.Count("QoS rounds"); err != nil {
		return p, err
	}
	learn, err := r.Enum(2, "QoS learn flag")
	p.Learn = learn == 1
	return p, err
}
