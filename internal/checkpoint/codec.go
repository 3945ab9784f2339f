package checkpoint

// The artifact format, written and read with internal/wire's Writer and
// Reader: all integers are canonical unsigned varints except fresh term
// values (zigzag-signed); strings are length-prefixed. Layout:
//
//	magic "CP", version varint (1)
//	fingerprint: 32 raw bytes (compile.Of)
//	exact digest: 32 raw bytes (ExactDigest)
//	variant varint
//	flags byte (bit 0: terminated)
//	rounds varint
//	next null id varint (factory high-water mark)
//	delta start varint (semi-naive window start)
//	snapshot: length varint + a wire snapshot of the instance
//	fired term manifest: count; per term: one wire manifest record,
//	    written by wire.Writer.Term and parsed by wire.Reader.Term
//	    (nulls resolved against the snapshot's); first-occurrence
//	    order over the fired tuples' term ids
//	fired tuples: count; per tuple: TGD index varint, id count varint,
//	    then manifest indexes
//	checksum: first 8 bytes of the SHA-256 of everything before it
//
// Like the wire codec, the encoding is a pure function of the
// checkpoint's content: process-local symbol ids never appear (fired
// tuples are re-expressed over the manifest), so equal checkpoints
// encode byte-identically in any process and encode∘decode is a
// fixpoint (FuzzCheckpointRoundTrip pins both down).
//
// Null identity crosses the artifact in two sections — the snapshot and
// the fired manifest — under the same (factory id, depth) portable
// identity, and the decoder resolves fired nulls against the snapshot's:
// every fired-key id came from a matched instance atom, so a fired null
// that does not occur in the snapshot is corrupt. Encoding enforces the
// identity's precondition: two distinct nulls sharing a factory id (as
// decoded instances from independent streams can) would silently merge
// on the wire, so Encode refuses such instances instead of producing an
// artifact that decodes to something else.

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/chase"
	"repro/internal/logic"
	"repro/internal/wire"
)

const checksumLen = 8

// Encode serializes the checkpoint. It fails when the checkpoint's terms
// cannot be expressed portably: a fired key referencing a symbol id with
// no registered term, or distinct nulls sharing a factory id (their wire
// identities would collide and decode as one null).
func (c *Checkpoint) Encode() ([]byte, error) {
	if c.State == nil || c.Instance == nil {
		return nil, fmt.Errorf("checkpoint: encode of an incomplete checkpoint")
	}
	// The (factory id -> null) injection the wire identity requires,
	// over every null the artifact mentions: instance atoms first, then
	// fired keys (which should all occur in the instance anyway).
	// Nulls live in their factory, not the process symbol table, so the
	// same sweep also builds the (symbol id -> null) view the fired-key
	// manifest needs — logic.TermOfID cannot resolve a null's id.
	byID := make(map[int]*logic.Null)
	nullOfGID := make(map[int32]*logic.Null)
	checkNull := func(n *logic.Null) error {
		if prev, ok := byID[n.ID()]; ok && prev != n {
			return fmt.Errorf("checkpoint: distinct nulls share factory id %d; the instance is not portable", n.ID())
		}
		byID[n.ID()] = n
		return nil
	}
	for _, a := range c.Instance.Atoms() {
		for i, t := range a.Args {
			if n, ok := t.(*logic.Null); ok {
				if err := checkNull(n); err != nil {
					return nil, err
				}
				nullOfGID[a.ArgID(i)] = n
			}
		}
	}

	w := &wire.Writer{Buf: make([]byte, 0, 256+16*c.Instance.Len())}
	w.Buf = append(w.Buf, 'C', 'P')
	w.Uvarint(Version)
	w.Raw(c.Fingerprint[:])
	w.Raw(c.Exact[:])
	w.Uvarint(uint64(c.Variant))
	w.Bool(c.Terminated)
	w.Uvarint(uint64(c.Rounds))
	w.Uvarint(uint64(c.State.NextNullID))
	w.Uvarint(uint64(c.State.DeltaStart))
	w.Blob(wire.EncodeSnapshot(c.Instance))

	// Fired term manifest in first-occurrence order.
	var (
		terms   []logic.Term
		termIdx = make(map[int32]int)
	)
	for _, tuple := range c.State.Fired {
		if len(tuple) == 0 {
			return nil, fmt.Errorf("checkpoint: empty fired-trigger key")
		}
		for _, id := range tuple[1:] {
			if _, ok := termIdx[id]; ok {
				continue
			}
			var t logic.Term
			if n, ok := nullOfGID[id]; ok {
				t = n
			} else if t = logic.TermOfID(id); t == nil {
				// Every fired-key id came from a matched instance atom, so
				// it is either a null of the instance (resolved above) or a
				// table-registered ground term.
				return nil, fmt.Errorf("checkpoint: fired key references unregistered symbol id %d", id)
			}
			termIdx[id] = len(terms)
			terms = append(terms, t)
		}
	}
	w.Uvarint(uint64(len(terms)))
	for _, t := range terms {
		w.Term(t)
	}
	w.Uvarint(uint64(len(c.State.Fired)))
	for _, tuple := range c.State.Fired {
		w.Uvarint(uint64(tuple[0]))
		w.Uvarint(uint64(len(tuple) - 1))
		for _, id := range tuple[1:] {
			w.Uvarint(uint64(termIdx[id]))
		}
	}

	sum := sha256.Sum256(w.Buf)
	w.Raw(sum[:checksumLen])
	return w.Buf, nil
}

// Decode parses and validates an artifact. The returned checkpoint owns
// a wire stream positioned after the snapshot, so ApplyDelta can append
// delta blobs with null identity resolved correctly. Every defect —
// checksum mismatch, truncation, bad section, a fired key referencing a
// null the snapshot does not contain — fails with ErrCorrupt wrapping
// the specifics; hostile input never panics.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) < 2+1+2*sha256.Size+checksumLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any artifact", ErrCorrupt, len(data))
	}
	payload, tail := data[:len(data)-checksumLen], data[len(data)-checksumLen:]
	sum := sha256.Sum256(payload)
	if [checksumLen]byte(tail) != [checksumLen]byte(sum[:checksumLen]) {
		return nil, fmt.Errorf("%w: checksum mismatch (truncated or altered artifact)", ErrCorrupt)
	}
	if payload[0] != 'C' || payload[1] != 'P' {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r := wire.NewReader(payload[2:], ErrCorrupt)
	v, err := r.Count("version")
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, Version)
	}
	c := &Checkpoint{State: &chase.ResumeState{}}
	fp, err := r.Raw(sha256.Size, "fingerprint")
	if err != nil {
		return nil, err
	}
	copy(c.Fingerprint[:], fp)
	ex, err := r.Raw(sha256.Size, "exact digest")
	if err != nil {
		return nil, err
	}
	copy(c.Exact[:], ex)
	variant, err := r.Count("variant")
	if err != nil {
		return nil, err
	}
	if variant > int(chase.Restricted) {
		return nil, fmt.Errorf("%w: unknown chase variant %d", ErrCorrupt, variant)
	}
	c.Variant = chase.Variant(variant)
	c.State.Variant = c.Variant
	terminated, err := r.Enum(2, "flags")
	if err != nil {
		return nil, err
	}
	c.Terminated = terminated == 1
	if c.Rounds, err = r.Count("rounds"); err != nil {
		return nil, err
	}
	if c.State.NextNullID, err = r.Count("next null id"); err != nil {
		return nil, err
	}
	if c.State.DeltaStart, err = r.Count("delta start"); err != nil {
		return nil, err
	}
	snap, err := r.Blob("snapshot")
	if err != nil {
		return nil, err
	}
	c.dec = wire.NewDecoder()
	if c.Instance, err = c.dec.Snapshot(snap); err != nil {
		return nil, fmt.Errorf("%w: snapshot: %w", ErrCorrupt, err)
	}
	if c.State.DeltaStart > c.Instance.Len() {
		return nil, fmt.Errorf("%w: delta window starts at %d, snapshot holds %d atoms", ErrCorrupt, c.State.DeltaStart, c.Instance.Len())
	}

	// Fired-key nulls resolve against the snapshot's: every fired key id
	// came from a matched instance atom.
	nullByID := make(map[int]*logic.Null)
	for _, a := range c.Instance.Atoms() {
		for _, t := range a.Args {
			if n, ok := t.(*logic.Null); ok {
				nullByID[n.ID()] = n
			}
		}
	}
	resolve := func(id, depth int) (logic.Term, error) {
		n, ok := nullByID[id]
		if !ok {
			return nil, fmt.Errorf("%w: fired key references null %d, which the snapshot does not contain", ErrCorrupt, id)
		}
		if n.Depth() != depth {
			return nil, fmt.Errorf("%w: fired key null %d at depth %d, snapshot has depth %d", ErrCorrupt, id, depth, n.Depth())
		}
		return n, nil
	}
	nterms, err := r.Records("fired term count")
	if err != nil {
		return nil, err
	}
	termIDs := make([]int32, nterms)
	for i := range termIDs {
		term, err := r.Term(resolve)
		if err != nil {
			return nil, err
		}
		termIDs[i] = logic.IDOf(term)
	}
	nfired, err := r.Records("fired tuple count")
	if err != nil {
		return nil, err
	}
	c.State.Fired = make([][]int32, nfired)
	for i := range c.State.Fired {
		tgdIdx, err := r.Count("fired TGD index")
		if err != nil {
			return nil, err
		}
		nids, err := r.Records("fired key width")
		if err != nil {
			return nil, err
		}
		tuple := make([]int32, 1, 1+nids)
		tuple[0] = int32(tgdIdx)
		for range nids {
			ti, err := r.Count("fired term index")
			if err != nil {
				return nil, err
			}
			if ti >= len(termIDs) {
				return nil, fmt.Errorf("%w: fired key references term %d of %d", ErrCorrupt, ti, len(termIDs))
			}
			tuple = append(tuple, termIDs[ti])
		}
		c.State.Fired[i] = tuple
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}
