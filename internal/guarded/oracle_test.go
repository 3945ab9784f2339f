package guarded

import (
	"math/rand"
	"testing"

	"repro/internal/families"
	"repro/internal/logic"
)

// domOf returns the guard's term-id tuple.
func domOf(guard *logic.Atom) []int32 {
	dom := make([]int32, len(guard.Args))
	for i := range dom {
		dom[i] = guard.ArgID(i)
	}
	return dom
}

// scanAtomsOver is the full-scan reference for collectOver without extra
// atoms: every atom of the instance whose terms all occur in dom(guard).
func scanAtomsOver(in *logic.Instance, guard *logic.Atom) []*logic.Atom {
	dom := make(map[int32]bool)
	for i := range guard.Args {
		dom[guard.ArgID(i)] = true
	}
	var out []*logic.Atom
	for _, a := range in.Atoms() {
		ok := true
		for i := range a.Args {
			if !dom[a.ArgID(i)] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, a)
		}
	}
	return out
}

// scanCollectOver is the full-scan reference for collectOver: the atoms
// of the instance plus the extra atoms within dom(guard), deduplicated by
// key.
func scanCollectOver(in *logic.Instance, extra []*logic.Atom, guard *logic.Atom) []*logic.Atom {
	dom := make(map[int32]bool, len(guard.Args))
	for i := range guard.Args {
		dom[guard.ArgID(i)] = true
	}
	within := func(a *logic.Atom) bool {
		for i := range a.Args {
			if !dom[a.ArgID(i)] {
				return false
			}
		}
		return true
	}
	var out []*logic.Atom
	seen := make(map[string]bool)
	for _, a := range in.Atoms() {
		if within(a) && !seen[a.Key()] {
			seen[a.Key()] = true
			out = append(out, a)
		}
	}
	for _, a := range extra {
		if within(a) && !seen[a.Key()] {
			seen[a.Key()] = true
			out = append(out, a)
		}
	}
	return out
}

// sameAtomSet reports whether got and want hold the same atoms, got with
// no atom twice.
func sameAtomSet(got, want []*logic.Atom) bool {
	if len(got) != len(want) {
		return false
	}
	in := logic.NewDatabase(want...)
	seen := logic.NewInstance()
	for _, a := range got {
		if !in.Has(a) || !seen.Add(a) {
			return false
		}
	}
	return true
}

// checkCollect compares the index-backed lookups with the full-scan
// oracles for one instance, guard and extra atom list.
func checkCollect(t *testing.T, in *logic.Instance, guard *logic.Atom, extra []*logic.Atom) {
	t.Helper()
	if got, want := collectOver(nil, in, nil, domOf(guard)), scanAtomsOver(in, guard); !sameAtomSet(got, want) {
		t.Fatalf("atoms over %v in %v:\ngot  %v\nwant %v", guard, in, got, want)
	}
	if got, want := collectOver(nil, in, extra, domOf(guard)), scanCollectOver(in, extra, guard); !sameAtomSet(got, want) {
		t.Fatalf("collect over %v in %v with %v:\ngot  %v\nwant %v", guard, in, extra, got, want)
	}
}

// Edge cases: zero-arity atoms, repeated-term guards, guards carrying
// placeholders, and extra atoms that duplicate instance atoms or each
// other.
func TestCollectOverEdgeCases(t *testing.T) {
	a, b, c := logic.Constant("a"), logic.Constant("b"), logic.Constant("c")
	ph1, ph2 := placeholder(1), placeholder(2)
	in := logic.NewDatabase(
		logic.MakeAtom("z"),
		logic.MakeAtom("r", a, a, b),
		logic.MakeAtom("r", b, a, c),
		logic.MakeAtom("r", b, b, b),
		logic.MakeAtom("s", a),
		logic.MakeAtom("s", c),
		logic.MakeAtom("t", b, a),
		logic.MakeAtom("t", a, ph1),
		logic.MakeAtom("t", ph1, ph1),
	)
	extra := []*logic.Atom{
		logic.MakeAtom("z"),
		logic.MakeAtom("s", a),
		logic.MakeAtom("u", ph1, a),
		logic.MakeAtom("u", ph1, a),
		logic.MakeAtom("u", ph2, b),
		logic.MakeAtom("t", a, b),
		logic.MakeAtom("t", a, b),
		logic.MakeAtom("w"),
	}
	for _, guard := range []*logic.Atom{
		logic.MakeAtom("r", a, a, b),
		logic.MakeAtom("r", b, b, b),
		logic.MakeAtom("t", a, ph1),
		logic.MakeAtom("u", ph1, a),
		logic.MakeAtom("t", ph1, ph1),
		logic.MakeAtom("z"),
	} {
		checkCollect(t, in, guard, extra)
	}
	// Over r(a,a,b): z(), r(a,a,b), r(b,b,b), s(a), t(b,a) from the
	// instance, then t(a,b) and w() once each from the extras.
	if got := collectOver(nil, in, extra, domOf(logic.MakeAtom("r", a, a, b))); len(got) != 7 {
		t.Fatalf("collect over r(a,a,b) = %v, want 7 atoms", got)
	}
}

// Property: on random guarded instances — completions, which are what the
// linearizer looks types up in — the index-backed lookups return the
// oracles' sets for every atom as guard, with the instance's own atoms,
// fresh atoms over the guard and repeats of both as extras.
func TestCollectOverMatchesOracle(t *testing.T) {
	cfg := families.DefaultRandomConfig()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		sigma := families.RandomGuarded(rng, cfg)
		db := families.RandomDatabase(rng, sigma, 10+rng.Intn(60), 4+rng.Intn(12))
		c, err := Complete(db, sigma)
		if err != nil {
			t.Fatal(err)
		}
		atoms := c.Atoms()
		for _, guard := range atoms {
			var extra []*logic.Atom
			for k := 0; k < 4 && len(atoms) > 0; k++ {
				dup := atoms[rng.Intn(len(atoms))]
				extra = append(extra, dup, dup)
			}
			args := make([]logic.Term, len(guard.Args))
			for i := range args {
				args[i] = guard.Args[rng.Intn(len(guard.Args))]
			}
			side := logic.NewAtom(logic.Predicate{Name: "side", Arity: len(args)}, args...)
			extra = append(extra, side, logic.NewAtom(side.Pred, args...))
			checkCollect(t, c, guard, extra)
		}
	}
}
