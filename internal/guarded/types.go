// Package guarded implements the type machinery for guarded TGDs used by
// Section 8 of the paper: Σ-types, the completion complete(I, Σ) (all
// chase atoms over dom(I), computed without materializing the — possibly
// infinite — chase), atom types type_{D,Σ}(α), and the linearization
// lin(D), lin(Σ) that converts guarded sets into linear ones while
// preserving chase finiteness and term depth (Proposition 8.1).
//
// The computation rests on the key property of the guarded chase ("taming
// the infinite chase"): the atoms derivable below an atom α that mention
// only dom(α) are determined by the type of α. The engine maintains a
// global fixpoint over canonical (guard pattern, known atoms) nodes with
// memoized closures; children lift derived atoms over shared terms back to
// their parents until stabilization.
//
// Two conventions differ from the paper's presentation of lin(D), lin(Σ):
//
//   - Full-arity convention. The type predicate [τ] keeps the arity of
//     τ's guard predicate, and lin(D) maps R(t̄) to [τ](t̄) with t̄ as is,
//     repeated terms included. τ fixes the guard's equality pattern, so
//     nothing is lost, and the body of a linearized rule is the guard of
//     the original rule with its arguments verbatim.
//   - Reachable linearization. The paper's lin(Σ) ranges over all Σ-types,
//     up to |sch(Σ)|·ar(Σ)^ar(Σ)·2^(|sch(Σ)|·ar(Σ)^ar(Σ)) of them. The
//     Linearizer generates only the types reachable from the types of
//     lin(D) through linearized rules. A rule whose body type is never
//     reached can never fire in the chase of lin(D), so the fragment has
//     the same chase on lin(D), and the ChTrm(G) decider gives the same
//     verdict.
//
// Linearization runs in time linear in the completion. A type lookup
// reaches the atoms over a guard's domain through the instance's position
// index instead of a scan, and finds a memoized type by a canonical key
// built from interned ids in reused buffers.
package guarded

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"

	"repro/internal/logic"
)

// placeholder is a fresh-term marker used during completion for
// existential witnesses. Placeholders never leak out of the engine: they
// are canonicalized away in child nodes and filtered from lifted atoms.
type placeholder int

// Key implements logic.Term.
func (p placeholder) Key() string { return "g\x00" + itoa(int(p)) }

func (p placeholder) String() string { return "*" + itoa(int(p)) }

func itoa(n int) string {
	// strconv.Itoa without the import dance in hot paths.
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Type is a canonical Σ-type: a guard atom whose arguments are the
// canonical integers 1..k (logic.Fresh, first occurrence order as in the
// paper: t1 = 1 and ti ≤ max(previous)+1), together with the set of atoms
// over dom(guard) — including the guard itself — that are known to hold.
type Type struct {
	Guard *logic.Atom
	// Atoms holds the type's atoms (guard included), sorted by key.
	Atoms []*logic.Atom
	key   string
}

// Key returns the canonical identity of the type.
func (t *Type) Key() string { return t.key }

// Width returns the number of distinct canonical integers of the guard.
func (t *Type) Width() int {
	max := 0
	for _, a := range t.Guard.Args {
		if f, ok := a.(logic.Fresh); ok && int(f) > max {
			max = int(f)
		}
	}
	return max
}

// String renders the type as "R(1,1,2) | {S(2,1), T(1)}".
func (t *Type) String() string {
	others := make([]string, 0, len(t.Atoms)-1)
	for _, a := range t.Atoms {
		if !a.Equal(t.Guard) {
			others = append(others, a.String())
		}
	}
	return t.Guard.String() + " | {" + strings.Join(others, ", ") + "}"
}

func makeType(guard *logic.Atom, atoms []*logic.Atom) *Type {
	sorted := make([]*logic.Atom, 0, len(atoms)+1)
	seen := make(map[string]bool, len(atoms)+1)
	add := func(a *logic.Atom) {
		if !seen[a.Key()] {
			seen[a.Key()] = true
			sorted = append(sorted, a)
		}
	}
	add(guard)
	for _, a := range atoms {
		add(a)
	}
	logic.SortAtoms(sorted)
	var b strings.Builder
	b.WriteString(guard.Key())
	for _, a := range sorted {
		b.WriteByte('\x03')
		b.WriteString(a.Key())
	}
	return &Type{Guard: guard, Atoms: sorted, key: b.String()}
}

// Renaming maps a guard atom's distinct terms, in first-occurrence
// order, to the canonical integers 1..k and back.
type Renaming struct {
	ids   []int32      // ids[i] is the interned id of the term renamed to i+1
	terms []logic.Term // aligned with ids
}

// reset makes r the renaming of the guard's terms, reusing its buffers.
func (r *Renaming) reset(guard *logic.Atom) {
	r.ids, r.terms = r.ids[:0], r.terms[:0]
	for i, t := range guard.Args {
		if id := guard.ArgID(i); r.forward(id) == 0 {
			r.ids = append(r.ids, id)
			r.terms = append(r.terms, t)
		}
	}
}

// forward returns the canonical integer of a term id, or 0 when the term
// is outside the renaming's domain.
func (r *Renaming) forward(id int32) logic.Fresh {
	for i, d := range r.ids {
		if d == id {
			return logic.Fresh(i + 1)
		}
	}
	return 0
}

// InvertAtom maps an atom over canonical integers back to original terms.
// The boolean is false if some integer is outside the renaming (which
// cannot happen for atoms over the type's domain).
func (r *Renaming) InvertAtom(a *logic.Atom) (*logic.Atom, bool) {
	ids := make([]int32, len(a.Args))
	for i, t := range a.Args {
		f, ok := t.(logic.Fresh)
		if !ok || f < 1 || int(f) > len(r.ids) {
			return nil, false
		}
		ids[i] = r.ids[f-1]
	}
	return r.atomOf(a, ids), true
}

// atomOf builds the original-term atom of the canonical atom a from its
// inverted id tuple, which it takes ownership of.
func (r *Renaming) atomOf(a *logic.Atom, ids []int32) *logic.Atom {
	args := make([]logic.Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = r.terms[t.(logic.Fresh)-1]
	}
	return logic.NewAtomFromIDs(a.Pred, args, a.PredID(), ids)
}

// argOf returns the canonical integer of a's i-th argument. Atoms with
// terms outside the renaming's domain are rejected by panicking: call
// sites filter beforehand.
func (r *Renaming) argOf(a *logic.Atom, i int) logic.Fresh {
	f := r.forward(a.ArgID(i))
	if f == 0 {
		panic("guarded: atom outside guard domain in Canonicalize: " + a.String())
	}
	return f
}

// canonicalAtom renames an atom over the renaming's domain to canonical
// integers.
func (r *Renaming) canonicalAtom(a *logic.Atom) *logic.Atom {
	args := make([]logic.Term, len(a.Args))
	for i := range a.Args {
		args[i] = r.argOf(a, i)
	}
	return logic.NewAtom(a.Pred, args...)
}

// build returns the canonical type of the guard the renaming was reset to,
// together with the atoms over its domain.
func (r *Renaming) build(guard *logic.Atom, atoms []*logic.Atom) *Type {
	catoms := make([]*logic.Atom, len(atoms))
	for i, a := range atoms {
		catoms[i] = r.canonicalAtom(a)
	}
	return makeType(r.canonicalAtom(guard), catoms)
}

// Canonicalize builds the canonical type of a guard atom together with the
// atoms over its domain, returning the type and the renaming used. Atoms
// containing terms outside dom(guard) are rejected by panicking: call
// sites filter beforehand.
func Canonicalize(guard *logic.Atom, atoms []*logic.Atom) (*Type, *Renaming) {
	r := &Renaming{}
	r.reset(guard)
	return r.build(guard, atoms), r
}

// canonicalizer computes canonical type keys from interned id tuples in
// reused buffers, so that finding an already memoized type allocates
// nothing; a *Type is built only on a miss. The key encodes the canonical
// guard followed by the sorted, duplicate-free set of canonical atoms
// (guard included), each as its predicate id and canonical integers. It
// identifies exactly what Type.Key identifies, but only within the process
// (predicate ids are interned), which is all the memo tables need.
type canonicalizer struct {
	ren   Renaming
	atoms []*logic.Atom // gathered atoms over the guard's domain
	enc   []byte        // encoded atoms, guard first
	spans []span        // one per encoded atom
	key   []byte
}

// span locates one encoded atom in canonicalizer.enc.
type span struct{ lo, hi int }

// encode appends a's canonical encoding; its length is fixed by the
// predicate, so concatenated encodings never run together.
func (c *canonicalizer) encode(a *logic.Atom) {
	lo := len(c.enc)
	c.enc = binary.BigEndian.AppendUint32(c.enc, uint32(a.PredID()))
	for i := range a.Args {
		c.enc = binary.BigEndian.AppendUint32(c.enc, uint32(c.ren.argOf(a, i)))
	}
	c.spans = append(c.spans, span{lo, len(c.enc)})
}

// keyOver resets the renaming to the guard, gathers into c.atoms the atoms
// of the instance plus the extra atoms over the guard's domain, and
// returns their canonical key (valid until the next call).
func (c *canonicalizer) keyOver(guard *logic.Atom, in *logic.Instance, extra []*logic.Atom) []byte {
	c.ren.reset(guard)
	c.atoms = collectOver(c.atoms[:0], in, extra, c.ren.ids)
	return c.keyOf(guard, c.atoms)
}

// keyOf returns the canonical key of the guard's type over the given
// atoms; the renaming must have been reset to the guard. The key is valid
// until the next call.
func (c *canonicalizer) keyOf(guard *logic.Atom, atoms []*logic.Atom) []byte {
	c.enc, c.spans = c.enc[:0], c.spans[:0]
	c.encode(guard)
	for _, a := range atoms {
		c.encode(a)
	}
	bytesOf := func(s span) []byte { return c.enc[s.lo:s.hi] }
	c.key = append(c.key[:0], bytesOf(c.spans[0])...)
	slices.SortFunc(c.spans, func(a, b span) int { return bytes.Compare(bytesOf(a), bytesOf(b)) })
	for i, s := range c.spans {
		if i == 0 || !bytes.Equal(bytesOf(s), bytesOf(c.spans[i-1])) {
			c.key = append(c.key, bytesOf(s)...)
		}
	}
	return c.key
}

// collectOver appends to dst the atoms of the instance plus the extra
// atoms whose terms all lie in the term-id set dom, each once, and returns
// the extended slice. With no extra atoms it gathers the candidate type
// atoms of a guard α: type_{D,Σ}(α) is collectOver over complete(D, Σ)
// and dom(α).
func collectOver(dst []*logic.Atom, in *logic.Instance, extra []*logic.Atom, dom []int32) []*logic.Atom {
	dst = in.AppendWithin(dst, dom)
	n := len(dst)
next:
	for _, a := range extra {
		for i := range a.Args {
			if !slices.Contains(dom, a.ArgID(i)) {
				continue next
			}
		}
		if in.Has(a) {
			continue
		}
		for _, b := range dst[n:] {
			if b.Equal(a) {
				continue next
			}
		}
		dst = append(dst, a)
	}
	return dst
}
