package logic

// This file implements body programs, the semi-naive half of homomorphism
// search. A semi-naive round enumerates the homomorphisms whose image
// touches the delta [deltaStart, inst.Len()) by the standard
// decomposition: for each seed position i, body[0..i-1] map to old atoms,
// body[i] to a delta atom, the rest anywhere, so each homomorphism is
// produced exactly once (body[i] is the first body atom to land in the
// delta). The join is evaluated seed-first, so a round's work is
// proportional to the delta, not the instance.
//
// With the seed placed first, orderBody's greedy placement depends only
// on the body, so the join order, argument slot codes and slot table of
// every seed are instance-independent. Matcher.CompileBody freezes them
// into immutable BodyPrograms, compiled once per body and shared across
// rounds, runs and worker goroutines; a round only supplies the age
// windows, which a Matcher applies when it installs a program. The chase
// engine compiles one program set per TGD set, and the cross-request
// compilation cache (internal/compile) shares that set between runs.

// BodyProgram is a conjunctive body compiled for a fixed semi-naive seed
// position. It is immutable after CompileBody and safe to share across
// any number of Matchers concurrently: running matchers read the program
// and keep their bindings in their own slot arrays.
type BodyProgram struct {
	body    []*Atom   // join-ordered body atoms (seed first)
	perm    []int     // ordered position -> original body index
	code    [][]int32 // per ordered atom: ground id (>= 0) or -1-slot
	slotVar []Variable
	slotID  []int32
	seed    int   // original index of the seed atom
	seedPid int32 // the seed atom's predicate id (delta-skip probe)
}

// CompileBody compiles body for every seed position, in body order,
// through the Matcher's scratch buffers, so compiling a whole TGD set on
// one Matcher allocates little beyond the programs; the programs of one
// body share their backing arrays and keep no reference to the Matcher.
// It returns nil for an empty body, which has no seed position and hence
// no semi-naive match.
func (mm *Matcher) CompileBody(body []*Atom) []*BodyProgram {
	n := len(body)
	if n == 0 {
		return nil
	}
	ids := 0
	for _, a := range body {
		ids += len(a.ids)
	}
	m := &mm.m
	cons := m.anyAgeCons(n)
	progs := make([]BodyProgram, n)
	out := make([]*BodyProgram, n)
	// Every seed orders the same n atoms and slots the same variables, so
	// exact-capacity arenas hold all n programs and never reallocate.
	var (
		atoms  = make([]*Atom, 0, n*n)
		perms  = make([]int, 0, n*n)
		codes  = make([][]int32, 0, n*n)
		arena  = make([]int32, 0, n*ids)
		vars   []Variable
		varIDs []int32
	)
	for seed := range body {
		m.compile(body, cons, seed)
		if vars == nil {
			vars = make([]Variable, 0, n*len(m.slotVar))
			varIDs = make([]int32, 0, n*len(m.slotID))
		}
		p := &progs[seed]
		p.body = carve(&atoms, m.body)
		p.perm = carve(&perms, m.ordPerm)
		p.slotVar = carve(&vars, m.slotVar)
		p.slotID = carve(&varIDs, m.slotID)
		start := len(codes)
		for _, c := range m.code {
			codes = append(codes, carve(&arena, c))
		}
		p.code = codes[start:len(codes):len(codes)]
		p.seed = seed
		p.seedPid = body[seed].pid
		out[seed] = p
	}
	return out
}

// carve appends src to the arena *buf and returns the appended part,
// capped so that appending to it cannot overwrite a neighbour.
func carve[T any](buf *[]T, src []T) []T {
	start := len(*buf)
	*buf = append(*buf, src...)
	return (*buf)[start:len(*buf):len(*buf)]
}

// install points the matcher at the program's read-only compiled body and
// materializes this round's age windows: atoms before the seed (in
// original body order) must predate deltaStart, the seed's image must land
// in [lo, hi), later atoms are unconstrained.
func (m *matcher) install(prog *BodyProgram, deltaStart, lo, hi int) {
	m.body = prog.body
	m.code = prog.code
	m.slotVar = prog.slotVar
	m.slotID = prog.slotID
	m.borrowed = true
	n := len(prog.body)
	if cap(m.constraints) < n {
		m.constraints = make([]deltaConstraint, n)
	} else {
		m.constraints = m.constraints[:n]
	}
	for k, orig := range prog.perm {
		switch {
		case orig < prog.seed:
			m.constraints[k] = deltaConstraint{mode: mustBeOld, bound: deltaStart}
		case orig == prog.seed:
			m.constraints[k] = deltaConstraint{mode: mustBeNew, bound: lo, hi: hi}
		default:
			m.constraints[k] = deltaConstraint{}
		}
	}
	s := len(prog.slotVar)
	if cap(m.boundID) < s {
		m.boundID = make([]int32, s)
		m.boundTerm = make([]Term, s)
	} else {
		m.boundID = m.boundID[:s]
		m.boundTerm = m.boundTerm[:s]
	}
}

// MatchAllProgs is the semi-naive enumeration: progs is CompileBody(body),
// and every homomorphism from body into inst whose image uses at least one
// atom with insertion sequence >= deltaStart is yielded exactly once, seed
// by seed. A seed whose predicate gained no atoms since deltaStart
// has nothing to enumerate and is skipped.
func (mm *Matcher) MatchAllProgs(progs []*BodyProgram, inst *Instance, deltaStart int, yield func(*Match) bool) {
	m := mm.reset(inst)
	for _, prog := range progs {
		if !inst.HasDeltaFor(prog.seedPid, deltaStart) {
			continue
		}
		m.install(prog, deltaStart, deltaStart, maxSeq)
		if !m.run(yield) {
			return
		}
	}
}

// MatchShardProg enumerates one shard of MatchAllProgs: the homomorphisms
// of prog's seed whose seed image has insertion sequence in [lo, hi).
//
// Sharding is exact and order-compatible: partitioning [deltaStart,
// inst.Len()) into windows for every program and concatenating the shards
// by (seed, lo) reproduces MatchAllProgs' yield order exactly — candidate
// lists are in insertion order, so the seed atom (placed first in the
// join) walks its window in the same relative order the unsharded
// enumeration would. The parallel chase collector relies on this to merge
// per-shard trigger buffers back into the sequential engine's order.
//
// MatchShardProg only reads the instance and the program, so distinct
// Matchers may shard the same instance concurrently (see the Instance
// concurrency contract). It returns false when yield stopped the
// enumeration.
func (mm *Matcher) MatchShardProg(prog *BodyProgram, inst *Instance, deltaStart, lo, hi int, yield func(*Match) bool) bool {
	m := mm.reset(inst)
	m.install(prog, deltaStart, lo, hi)
	return m.run(yield)
}
