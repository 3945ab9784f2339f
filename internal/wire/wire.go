// Package wire is the portable binary codec for instances: snapshots of a
// whole atom set and per-round deltas (the atoms appended since a known
// prefix), encoded so that a fresh process — with its own empty symbol
// table — decodes an instance that is byte-identical to the original
// under every cross-process identity the system has: CanonicalKey,
// insertion order (and hence semi-naive delta behavior and Seq), and null
// depths. It is the database half of the ROADMAP's distributed-sharding
// wire format; the ontology half is internal/compile's canonical
// fingerprint, and internal/service composes the two into
// fingerprint-addressed job submission.
//
// # Identity and the symbol manifest
//
// The process-local data plane addresses terms and predicates by dense
// int32 ids handed out in interning order, so ids are meaningless outside
// the process that assigned them. An encoding therefore never contains a
// symbol-table id. Instead, every snapshot and delta carries a symbol
// manifest — the distinct predicates and terms of its atoms, listed in
// order of first occurrence in the encoded atom sequence — and the atom
// section refers to symbols by manifest index. Terms appear in the
// manifest under their portable identity: constants and fresh terms by
// value, nulls by (factory id, depth) — the factory-local id is exactly
// what Term.Key and hence Instance.CanonicalKey expose — and foreign term
// kinds by their Key and rendering, carried opaquely. First-occurrence
// order makes the encoding a pure function of the instance's ordered atom
// sequence: two equal instances encode byte-identically no matter which
// process, symbol table, or null factory produced them, and
// encode→decode→encode is a fixpoint (FuzzWireRoundTrip pins both down).
//
// # Deltas
//
// A delta is a snapshot of a suffix: the atoms with insertion sequence >=
// some base length, plus that base length in the header. Deltas are
// self-contained (their manifest re-lists every symbol they touch), but
// null identity must be resolved against the nulls of the base snapshot
// and earlier deltas, so decoding a snapshot+delta stream goes through
// one Decoder, which owns the stream's NullFactory. Applying a delta
// whose base length does not match the decoded instance fails with
// ErrDeltaMismatch rather than silently misaligning the rounds.
//
// # Wire format
//
// All integers are unsigned varints (encoding/binary), except fresh-term
// values, which are zigzag-signed; strings are length-prefixed. Varints
// are canonical: the minimal-length encoding of their value, so a
// multi-byte varint never ends in a zero byte, and decoders reject
// overlong ones. Writer and Reader implement these primitives for every
// binary format in the system, and Writer.Term/Reader.Term are the term
// manifest records below. Layout:
//
//	magic "CW", kind byte ('S' snapshot, 'D' delta), version varint (1)
//	delta only: base varint (required instance length before applying)
//	predicate count; per predicate: name, arity
//	term count; per term: tag byte + payload
//	    'c' constant: value
//	    'f' fresh:    zigzag varint
//	    'n' null:     factory id varint, depth varint
//	    'v' variable: name (instances are normally ground; totality)
//	    'o' foreign:  identity key, rendering
//	atom count; per atom: predicate index, then arity term indexes
package wire

import (
	"errors"
	"fmt"

	"repro/internal/logic"
)

// Version is the codec version this package encodes (and the only one it
// decodes).
const Version = 1

var (
	// ErrCorrupt reports an encoding this package cannot decode: bad
	// magic, unknown version, truncated sections, out-of-range indexes,
	// or a manifest record that violates the codec's invariants. It wraps
	// the specific defect.
	ErrCorrupt = errors.New("wire: corrupt encoding")
	// ErrDeltaMismatch reports a delta whose recorded base length does
	// not match the instance it is being applied to.
	ErrDeltaMismatch = errors.New("wire: delta base does not match the decoded instance")
)

const (
	kindSnapshot = 'S'
	kindDelta    = 'D'
)

// opaque carries a foreign term kind across the wire: a term defined
// outside internal/logic survives encoding as its identity key plus its
// rendering, which is all the data plane ever derives from it. Decoded
// opaque terms intern through the symbol table's foreign-key path, so
// they compare equal (by id and by Key) to the original term kind.
type opaque struct{ key, str string }

// Key implements logic.Term.
func (o opaque) Key() string { return o.key }

func (o opaque) String() string { return o.str }

// builtinKeyPrefix reports whether the key belongs to one of logic's
// built-in term kinds. Encoders never emit such keys under the foreign
// tag; decoders reject them, because interning them as foreign would
// create a second symbol id for an existing identity key.
func builtinKeyPrefix(key string) bool {
	if len(key) < 2 || key[1] != 0 {
		return false
	}
	switch key[0] {
	case 'c', 'n', 'v', 'f':
		return true
	}
	return false
}

// EncodeSnapshot encodes the full instance. The result is a pure function
// of the instance's ordered atom sequence (no process-local state leaks
// in), so equal instances encode byte-identically across processes.
func EncodeSnapshot(in *logic.Instance) []byte {
	w := &Writer{Buf: make([]byte, 0, 64+16*in.Len())}
	writeHeader(w, kindSnapshot)
	writeAtoms(w, in.Atoms())
	meterEncoded(len(w.Buf))
	return w.Buf
}

// EncodeDelta encodes the atoms with insertion sequence >= from — one
// semi-naive round's delta when from is the previous round's instance
// length — against a base of length from.
func EncodeDelta(in *logic.Instance, from int) []byte {
	if from < 0 {
		from = 0
	}
	all := in.Atoms()
	if from > len(all) {
		from = len(all)
	}
	w := &Writer{Buf: make([]byte, 0, 64+16*(len(all)-from))}
	writeHeader(w, kindDelta)
	w.Uvarint(uint64(from))
	writeAtoms(w, all[from:])
	meterEncoded(len(w.Buf))
	return w.Buf
}

func writeHeader(w *Writer, kind byte) {
	w.Buf = append(w.Buf, 'C', 'W', kind)
	w.Uvarint(Version)
}

// writeAtoms writes the symbol manifest (first-occurrence order) followed
// by the atom section.
func writeAtoms(w *Writer, atoms []*logic.Atom) {
	var (
		preds     []logic.Predicate
		predIdx   = make(map[logic.Predicate]int)
		terms     []logic.Term
		termIdx   = make(map[int32]int) // interned id -> manifest index
		atomPreds = make([]int, len(atoms))
		atomTerms = make([][]int, len(atoms))
	)
	for ai, a := range atoms {
		pi, ok := predIdx[a.Pred]
		if !ok {
			pi = len(preds)
			predIdx[a.Pred] = pi
			preds = append(preds, a.Pred)
		}
		atomPreds[ai] = pi
		idx := make([]int, len(a.Args))
		for i := range a.Args {
			id := a.ArgID(i)
			ti, ok := termIdx[id]
			if !ok {
				ti = len(terms)
				termIdx[id] = ti
				terms = append(terms, a.Args[i])
			}
			idx[i] = ti
		}
		atomTerms[ai] = idx
	}
	w.Uvarint(uint64(len(preds)))
	for _, p := range preds {
		w.Str(p.Name)
		w.Uvarint(uint64(p.Arity))
	}
	w.Uvarint(uint64(len(terms)))
	for _, t := range terms {
		w.Term(t)
	}
	w.Uvarint(uint64(len(atoms)))
	for ai := range atoms {
		w.Uvarint(uint64(atomPreds[ai]))
		for _, ti := range atomTerms[ai] {
			w.Uvarint(uint64(ti))
		}
	}
}

// Decoder decodes one snapshot and any number of subsequent deltas into a
// single instance, resolving null identity across the whole stream
// through one factory. A Decoder is single-use and not safe for
// concurrent use.
//
// A decode error poisons the decoder: every later Snapshot or Apply call
// fails with an error wrapping both ErrCorrupt and the original defect,
// and Err reports it. Section decoding is atomic (parse-then-materialize,
// see section), so the already-decoded instance is still exactly the
// pre-error stream prefix — Instance remains valid for reading — but the
// stream itself is unusable: a caller that fed one corrupt frame has lost
// sync, and silently accepting the next frame would splice rounds across
// the gap. Checkpoint loading composes snapshot + delta + trigger
// sections on one decoder and relies on this latch.
type Decoder struct {
	nulls *logic.NullFactory
	inst  *logic.Instance
	err   error // first decode error; poisons all later calls
}

// NewDecoder returns a decoder for one snapshot+deltas stream.
func NewDecoder() *Decoder {
	return &Decoder{nulls: logic.NewNullFactory()}
}

// Instance returns the instance decoded so far (nil before Snapshot).
func (d *Decoder) Instance() *logic.Instance { return d.inst }

// Err returns the error that poisoned the decoder, or nil while the
// stream is still healthy.
func (d *Decoder) Err() error { return d.err }

// poison latches the stream's first decode error and returns it. Misuse
// errors (snapshot-after-snapshot, delta-before-snapshot, mismatched
// delta base) poison too: each means the caller's framing is out of step
// with the stream, after which no later frame can be trusted to land
// where the caller thinks it does.
func (d *Decoder) poison(err error) error {
	if d.err == nil {
		d.err = err
	}
	return err
}

// poisoned reports the standing error of a dead stream, wrapping
// ErrCorrupt so callers matching the usual decode-failure sentinel catch
// it without knowing about the latch.
func (d *Decoder) poisoned() error {
	return fmt.Errorf("%w: decoder poisoned by earlier error: %w", ErrCorrupt, d.err)
}

// Snapshot decodes a snapshot encoding into a fresh instance. It must be
// the stream's first call and may be made only once.
func (d *Decoder) Snapshot(data []byte) (*logic.Instance, error) {
	if d.err != nil {
		return nil, d.poisoned()
	}
	if d.inst != nil {
		return nil, d.poison(fmt.Errorf("%w: decoder already holds a snapshot", ErrCorrupt))
	}
	r := NewReader(data, ErrCorrupt)
	if err := readHeader(&r, kindSnapshot); err != nil {
		return nil, d.poison(err)
	}
	in := logic.NewInstance()
	if err := d.section(&r, in); err != nil {
		return nil, d.poison(err)
	}
	meterDecoded(len(data))
	d.inst = in
	return in, nil
}

// Apply decodes a delta encoding and appends its atoms to the decoded
// instance, returning the number of atoms added. The delta's recorded
// base length must equal the instance's current length.
//
// An error poisons the decoder (see Decoder): the instance keeps the
// atoms of every frame that succeeded, nothing from the failed one, and
// all later Snapshot/Apply calls refuse with an error wrapping
// ErrCorrupt and the original defect.
func (d *Decoder) Apply(data []byte) (int, error) {
	if d.err != nil {
		return 0, d.poisoned()
	}
	if d.inst == nil {
		return 0, d.poison(fmt.Errorf("%w: delta applied before any snapshot", ErrCorrupt))
	}
	r := NewReader(data, ErrCorrupt)
	if err := readHeader(&r, kindDelta); err != nil {
		return 0, d.poison(err)
	}
	base, err := r.Count("delta base")
	if err != nil {
		return 0, d.poison(err)
	}
	if base != d.inst.Len() {
		return 0, d.poison(fmt.Errorf("%w: delta base %d, instance holds %d atoms", ErrDeltaMismatch, base, d.inst.Len()))
	}
	before := d.inst.Len()
	if err := d.section(&r, d.inst); err != nil {
		return 0, d.poison(err)
	}
	meterDecoded(len(data))
	return d.inst.Len() - before, nil
}

// DecodeSnapshot decodes a self-contained snapshot with a private
// decoder; use a Decoder directly when deltas will follow.
func DecodeSnapshot(data []byte) (*logic.Instance, error) {
	return NewDecoder().Snapshot(data)
}

// section decodes one manifest+atoms section into in. Decoding is
// parse-then-materialize: the whole encoding is parsed and validated —
// index ranges, tags, trailing bytes — before a single null is interned
// or atom added, so corrupt input leaves both the stream's instance and
// its null factory exactly as they were (Apply's atomicity rests on
// this).
func (d *Decoder) section(r *Reader, in *logic.Instance) error {
	npreds, err := r.Records("predicate count")
	if err != nil {
		return err
	}
	preds := make([]logic.Predicate, npreds)
	for i := range preds {
		name, err := r.Str("predicate name")
		if err != nil {
			return err
		}
		arity, err := r.Count("predicate arity")
		if err != nil {
			return err
		}
		preds[i] = logic.Predicate{Name: name, Arity: arity}
	}
	nterms, err := r.Records("term count")
	if err != nil {
		return err
	}
	// Null records are only noted here; they are interned through the
	// stream's factory once the section has validated. Sized for the
	// worst case (every term a null), which is bounded by the input.
	type pendingNull struct{ at, id, depth int }
	nulls := make([]pendingNull, 0, nterms)
	terms := make([]logic.Term, nterms)
	for i := range terms {
		if terms[i], err = r.Term(func(id, depth int) (logic.Term, error) {
			nulls = append(nulls, pendingNull{i, id, depth})
			return nil, nil
		}); err != nil {
			return err
		}
	}
	natoms, err := r.Records("atom count")
	if err != nil {
		return err
	}
	atomPreds := make([]int, natoms)
	atomArgs := make([][]int, natoms)
	for ai := 0; ai < natoms; ai++ {
		pi, err := r.Count("atom predicate index")
		if err != nil {
			return err
		}
		if pi >= len(preds) {
			return fmt.Errorf("%w: atom %d references predicate %d of %d", ErrCorrupt, ai, pi, len(preds))
		}
		p := preds[pi]
		if p.Arity > r.remaining() {
			// Every argument costs at least one byte; reject before the
			// argument slice is even allocated.
			return fmt.Errorf("%w: truncated atom %d", ErrCorrupt, ai)
		}
		idx := make([]int, p.Arity)
		for i := range idx {
			ti, err := r.Count("atom term index")
			if err != nil {
				return err
			}
			if ti >= len(terms) {
				return fmt.Errorf("%w: atom %d references term %d of %d", ErrCorrupt, ai, ti, len(terms))
			}
			idx[i] = ti
		}
		atomPreds[ai] = pi
		atomArgs[ai] = idx
	}
	if err := r.Done(); err != nil {
		return err
	}
	// Fully validated: materialize. Nothing below can fail.
	for _, n := range nulls {
		terms[n.at] = d.nulls.NullAt(n.id, n.depth)
	}
	for ai := range atomPreds {
		args := make([]logic.Term, len(atomArgs[ai]))
		for i, ti := range atomArgs[ai] {
			args[i] = terms[ti]
		}
		in.Add(logic.NewAtom(preds[atomPreds[ai]], args...))
	}
	return nil
}

// readHeader checks the magic, kind, and version prelude.
func readHeader(r *Reader, kind byte) error {
	magic, err := r.Raw(2, "magic")
	if err != nil || magic[0] != 'C' || magic[1] != 'W' {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	k, err := r.Byte("kind")
	if err != nil {
		return err
	}
	if k != kind {
		return fmt.Errorf("%w: kind %q, want %q", ErrCorrupt, k, kind)
	}
	v, err := r.Count("version")
	if err != nil {
		return err
	}
	if v != Version {
		return fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, Version)
	}
	return nil
}
