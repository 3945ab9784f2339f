package guarded

import (
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/parser"
)

// Property: canonicalization is invariant under injective renaming of the
// terms — the canonical type key depends only on the equality pattern.
func TestCanonicalizeRenamingInvariant(t *testing.T) {
	f := func(raw []uint8, shift uint8) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		mk := func(offset int) (*logic.Atom, []*logic.Atom) {
			args := make([]logic.Term, len(raw))
			for i, r := range raw {
				args[i] = logic.Constant(string(rune('a' + int(r%4) + offset)))
			}
			guard := logic.NewAtom(logic.Predicate{Name: "G", Arity: len(raw)}, args...)
			side := logic.NewAtom(logic.Predicate{Name: "S", Arity: 1}, args[0])
			return guard, []*logic.Atom{side}
		}
		g1, s1 := mk(0)
		g2, s2 := mk(int(shift%20) + 4) // disjoint constant range
		t1, _ := Canonicalize(g1, s1)
		t2, _ := Canonicalize(g2, s2)
		return t1.Key() == t2.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: renamings invert correctly — canonicalize then invert yields
// the original atoms.
func TestCanonicalizeInverse(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		args := make([]logic.Term, len(raw))
		for i, r := range raw {
			args[i] = logic.Constant(string(rune('a' + r%4)))
		}
		guard := logic.NewAtom(logic.Predicate{Name: "G", Arity: len(raw)}, args...)
		typ, ren := Canonicalize(guard, nil)
		back, ok := ren.InvertAtom(typ.Guard)
		return ok && back.Equal(guard)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the canonical guard follows the paper's Σ-type shape: the
// first argument is 1 and each argument is at most max(previous)+1.
func TestCanonicalGuardShape(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		args := make([]logic.Term, len(raw))
		for i, r := range raw {
			args[i] = logic.Constant(string(rune('a' + r%3)))
		}
		guard := logic.NewAtom(logic.Predicate{Name: "G", Arity: len(raw)}, args...)
		typ, _ := Canonicalize(guard, nil)
		max := 0
		for i, a := range typ.Guard.Args {
			fr, ok := a.(logic.Fresh)
			if !ok {
				return false
			}
			v := int(fr)
			if i == 0 && v != 1 {
				return false
			}
			if v < 1 || v > max+1 {
				return false
			}
			if v > max {
				max = v
			}
		}
		return typ.Width() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the canonicalizer's id key identifies exactly what Type.Key
// identifies. Guards and side atoms come from a tiny space (two guard
// patterns, seven possible side atoms), so equal types are frequent.
func TestCanonicalKeyMatchesTypeKey(t *testing.T) {
	a, b, c := logic.Constant("a"), logic.Constant("b"), logic.Constant("c")
	mk := func(x, y logic.Term, sides uint8) (*logic.Atom, []*logic.Atom) {
		guard := logic.MakeAtom("G", x, y)
		all := []*logic.Atom{
			logic.MakeAtom("S", x), logic.MakeAtom("S", y),
			logic.MakeAtom("T", x, y), logic.MakeAtom("T", y, x),
			logic.MakeAtom("T", x, x), logic.MakeAtom("G", y, x),
			guard, // the guard itself, as gathered atoms include it
		}
		var atoms []*logic.Atom
		for i, s := range all {
			if sides&(1<<i) != 0 {
				atoms = append(atoms, s)
			}
		}
		return guard, atoms
	}
	var canon canonicalizer
	keyOf := func(guard *logic.Atom, atoms []*logic.Atom) string {
		canon.ren.reset(guard)
		return string(canon.keyOf(guard, atoms))
	}
	f := func(rep1, rep2 bool, s1, s2 uint8) bool {
		y1, y2 := logic.Term(b), logic.Term(a)
		if rep1 {
			y1 = a
		}
		if rep2 {
			y2 = c
		}
		g1, at1 := mk(a, y1, s1)
		g2, at2 := mk(c, y2, s2)
		t1, _ := Canonicalize(g1, at1)
		t2, _ := Canonicalize(g2, at2)
		return (keyOf(g1, at1) == keyOf(g2, at2)) == (t1.Key() == t2.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Looking up an already registered type allocates nothing.
func TestTypeLookupHitAllocatesNothing(t *testing.T) {
	sigma := parser.MustParseRules(`
		e(X, Y), s(X) -> ∃Z e(Y, Z).
		e(X, Y), s(X) -> s(Y).
	`)
	db := parser.MustParseDatabase(`e(a, b). s(a). e(b, b). e(b, a).`)
	l, err := NewLinearizer(sigma)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Linearize(db); err != nil {
		t.Fatal(err)
	}
	completed := l.engine.Complete(db)
	fact := db.Atoms()[0]
	want := l.typeOf(completed, fact)
	allocs := testing.AllocsPerRun(100, func() {
		if l.typeOf(completed, fact) != want {
			t.Fatal("type changed between lookups")
		}
	})
	if allocs != 0 {
		t.Fatalf("registered type lookup: %v allocs, want 0", allocs)
	}
}
