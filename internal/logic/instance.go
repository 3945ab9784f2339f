package logic

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Instance is a set of atoms over constants and nulls (a database when all
// atoms are facts). Atom membership is resolved through the atoms'
// precomputed hashes and interned id tuples; per-predicate-id and
// per-(predicate, position, term id) indexes accelerate conjunctive
// matching, and insertion order is remembered so that iteration and
// semi-naive deltas are deterministic. No string key is built or hashed on
// any of these paths.
//
// Concurrency contract: an Instance is not safe for concurrent mutation,
// but while no Add runs, every read — Atoms, Len, Seq, Has, HasIDs,
// Canonical, ByPred, AtPosition, AppendWithin, and homomorphism search
// over the instance — may be issued from many goroutines simultaneously.
// The parallel chase collector relies on this: rounds alternate a
// read-only matching phase (sharded across workers) with a
// single-goroutine apply phase that mutates the instance. Atom.Key() and
// methods built on it (String, CanonicalKey, SortAtoms) are excluded from
// the contract: the key is cached lazily without synchronization, so
// materialize keys only from one goroutine.
type Instance struct {
	// first holds the (almost always unique) atom per hash; overflow
	// carries further atoms on the rare hash collision, resolved by
	// comparing id tuples. The split keeps Add at one map insert per atom
	// instead of one slice allocation per atom.
	first    map[uint64]*Atom
	overflow map[uint64][]*Atom // nil until the first collision
	order    []*Atom
	// seq maps the instance's canonical atom pointer to its insertion
	// sequence number.
	seq    map[*Atom]int
	byPred map[int32][]*Atom
	// index maps (predicate id, argument position, term id) to the atoms
	// that carry that term at that position; it accelerates bound-variable
	// lookups during homomorphism search.
	index map[posTermKey][]*Atom
}

type posTermKey struct {
	pred int32
	pos  int32
	term int32
}

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{
		first:  make(map[uint64]*Atom),
		seq:    make(map[*Atom]int),
		byPred: make(map[int32][]*Atom),
		index:  make(map[posTermKey][]*Atom),
	}
}

// NewDatabase builds an instance from the given atoms; it is a convenience
// constructor for literal databases.
func NewDatabase(atoms ...*Atom) *Instance {
	in := NewInstance()
	for _, a := range atoms {
		in.Add(a)
	}
	return in
}

// Add inserts the atom and reports whether it was new.
func (in *Instance) Add(a *Atom) bool {
	if b, ok := in.first[a.hash]; ok {
		if b.sameAtom(a) {
			return false
		}
		for _, c := range in.overflow[a.hash] {
			if c.sameAtom(a) {
				return false
			}
		}
		if in.overflow == nil {
			in.overflow = make(map[uint64][]*Atom)
		}
		in.overflow[a.hash] = append(in.overflow[a.hash], a)
	} else {
		in.first[a.hash] = a
	}
	in.seq[a] = len(in.order)
	in.order = append(in.order, a)
	in.byPred[a.pid] = append(in.byPred[a.pid], a)
	for i, id := range a.ids {
		k := posTermKey{pred: a.pid, pos: int32(i), term: id}
		in.index[k] = append(in.index[k], a)
	}
	return true
}

// AddAll inserts every atom and returns the number of new atoms.
func (in *Instance) AddAll(atoms []*Atom) int {
	n := 0
	for _, a := range atoms {
		if in.Add(a) {
			n++
		}
	}
	return n
}

// Has reports whether the instance contains the atom.
func (in *Instance) Has(a *Atom) bool { return in.Canonical(a) != nil }

// Canonical returns the instance's own copy of an atom equal to a, or nil
// when absent. It lets callers exchange structurally equal atoms for the
// pointer stored in the instance.
func (in *Instance) Canonical(a *Atom) *Atom { return in.lookup(a.hash, a.pid, a.ids) }

// HasIDs reports whether the instance contains the atom with the given
// interned predicate id and term-id tuple, without building the atom.
func (in *Instance) HasIDs(pid int32, ids []int32) bool {
	return in.lookup(hashAtom(pid, ids), pid, ids) != nil
}

func (in *Instance) lookup(hash uint64, pid int32, ids []int32) *Atom {
	if b, ok := in.first[hash]; ok {
		if b.pid == pid && int32sEqual(b.ids, ids) {
			return b
		}
		for _, c := range in.overflow[hash] {
			if c.pid == pid && int32sEqual(c.ids, ids) {
				return c
			}
		}
	}
	return nil
}

// Len returns the number of atoms.
func (in *Instance) Len() int { return len(in.order) }

// Atoms returns the atoms in insertion order. The returned slice is shared;
// callers must not modify it.
func (in *Instance) Atoms() []*Atom { return in.order }

// Seq returns the insertion sequence number of the atom, or -1 if absent.
// Semi-naive evaluation treats atoms with sequence >= deltaStart as new.
func (in *Instance) Seq(a *Atom) int {
	if s, ok := in.seq[a]; ok {
		return s
	}
	// a may be a structurally equal atom from elsewhere; resolve it to the
	// instance's canonical pointer.
	if c := in.Canonical(a); c != nil {
		return in.seq[c]
	}
	return -1
}

// ByPred returns the atoms with the given predicate, in insertion order.
// The returned slice is shared; callers must not modify it.
func (in *Instance) ByPred(p Predicate) []*Atom {
	// Lookup only: probing for an absent predicate must not intern it.
	pid, ok := lookupPredID(p)
	if !ok {
		return nil
	}
	return in.byPred[pid]
}

// byPredID is ByPred for callers that already hold the interned id.
func (in *Instance) byPredID(pid int32) []*Atom { return in.byPred[pid] }

// HasDeltaFor reports whether the predicate (by interned id) gained at
// least one atom with insertion sequence >= deltaStart. Per-predicate
// lists are in insertion order, so the last atom decides. Semi-naive
// matching and the parallel collector's shard generation share this probe
// so their seed-skip decisions cannot diverge.
func (in *Instance) HasDeltaFor(pid int32, deltaStart int) bool {
	list := in.byPred[pid]
	return len(list) > 0 && in.seq[list[len(list)-1]] >= deltaStart
}

// AtPosition returns the atoms that carry the given term at the given
// 0-based argument position of the predicate.
func (in *Instance) AtPosition(p Predicate, pos int, t Term) []*Atom {
	// Lookup only: probing for absent symbols must not intern them.
	pid, ok := lookupPredID(p)
	if !ok {
		return nil
	}
	tid, ok := lookupTermID(t)
	if !ok {
		return nil
	}
	return in.index[posTermKey{pred: pid, pos: int32(pos), term: tid}]
}

// AppendWithin appends to dst the atoms whose argument ids all lie in the
// term-id set dom, in unspecified order, and returns the extended slice.
// It is meant for small dom (a guard atom's terms). An atom of positive
// arity over dom carries a dom term at position 0, so the (predicate, 0,
// term) postings over the instance's predicates × dom hold every
// candidate exactly once; zero-arity atoms come from the predicate lists.
// Repeated ids in dom are ignored.
func (in *Instance) AppendWithin(dst []*Atom, dom []int32) []*Atom {
	for pid, list := range in.byPred {
		if len(list[0].ids) == 0 {
			dst = append(dst, list[0])
			continue
		}
	terms:
		for i, d := range dom {
			for _, prev := range dom[:i] {
				if prev == d {
					continue terms
				}
			}
		atoms:
			for _, a := range in.index[posTermKey{pred: pid, pos: 0, term: d}] {
				for _, id := range a.ids[1:] {
					if !slices.Contains(dom, id) {
						continue atoms
					}
				}
				dst = append(dst, a)
			}
		}
	}
	return dst
}

// atPositionID is AtPosition on interned ids.
func (in *Instance) atPositionID(pid, pos, term int32) []*Atom {
	return in.index[posTermKey{pred: pid, pos: pos, term: term}]
}

// Predicates returns the distinct predicates of the instance, sorted by
// name then arity.
func (in *Instance) Predicates() []Predicate {
	out := make([]Predicate, 0, len(in.byPred))
	for pid := range in.byPred {
		out = append(out, PredOfID(pid))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// ActiveDomain returns the distinct terms occurring in the instance
// (dom(I)), in order of first occurrence.
func (in *Instance) ActiveDomain() []Term {
	var out []Term
	seen := make(map[int32]bool)
	for _, a := range in.order {
		for i, t := range a.Args {
			if id := a.ids[i]; !seen[id] {
				seen[id] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// Clone returns an independent copy of the instance. Atoms are immutable
// and shared; the index maps are copied directly instead of re-inserting
// every atom, so cloning costs one map copy per index rather than a
// rehash of the whole instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		first:  make(map[uint64]*Atom, len(in.first)),
		order:  cloneAtoms(in.order),
		seq:    make(map[*Atom]int, len(in.seq)),
		byPred: make(map[int32][]*Atom, len(in.byPred)),
		index:  make(map[posTermKey][]*Atom, len(in.index)),
	}
	for h, a := range in.first {
		out.first[h] = a
	}
	if in.overflow != nil {
		out.overflow = make(map[uint64][]*Atom, len(in.overflow))
		// Slices are copied at exact capacity so a later append in either
		// instance reallocates instead of clobbering the shared backing
		// array.
		for h, bucket := range in.overflow {
			out.overflow[h] = cloneAtoms(bucket)
		}
	}
	for a, s := range in.seq {
		out.seq[a] = s
	}
	for pid, list := range in.byPred {
		out.byPred[pid] = cloneAtoms(list)
	}
	for k, list := range in.index {
		out.index[k] = cloneAtoms(list)
	}
	return out
}

func cloneAtoms(list []*Atom) []*Atom {
	out := make([]*Atom, len(list))
	copy(out, list)
	return out
}

// MaxNullID returns the largest factory-local null id occurring in the
// instance, or -1 when it contains no nulls. The chase engine seeds its
// run's null factory at MaxNullID()+1 so invented nulls never collide —
// in Key, and hence in CanonicalKey, rendering, and wire re-encoding —
// with nulls the input instance already carries.
func (in *Instance) MaxNullID() int {
	max := -1
	for _, a := range in.order {
		for _, t := range a.Args {
			if n, ok := t.(*Null); ok && n.ID() > max {
				max = n.ID()
			}
		}
	}
	return max
}

// MaxDepth returns the maximum atom depth over the instance (0 when empty
// or all facts).
func (in *Instance) MaxDepth() int {
	max := 0
	for _, a := range in.order {
		if d := a.Depth(); d > max {
			max = d
		}
	}
	return max
}

// IsDatabase reports whether every atom is a fact (constants only).
func (in *Instance) IsDatabase() bool {
	for _, a := range in.order {
		if !a.IsFact() {
			return false
		}
	}
	return true
}

// String renders the instance as a sorted, brace-delimited atom set. It is
// intended for small instances in tests and error messages.
func (in *Instance) String() string {
	atoms := make([]*Atom, len(in.order))
	copy(atoms, in.order)
	SortAtoms(atoms)
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// CanonicalKey returns a canonical string for the atom set (sorted atom
// keys). Two instances have the same canonical key iff they contain the
// same atoms. Keys, not interned ids, make the result comparable across
// instances built by independent runs (for example two chase runs with
// their own null factories).
func (in *Instance) CanonicalKey() string {
	keys := make([]string, 0, len(in.order))
	for _, a := range in.order {
		keys = append(keys, a.Key())
	}
	sort.Strings(keys)
	return strconv.Itoa(len(keys)) + "|" + strings.Join(keys, "\x02")
}
