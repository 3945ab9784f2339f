package logic

import (
	"math/rand"
	"testing"
)

// Id-based term identity must agree with the old Key()-string identity for
// every built-in term kind (nulls within one factory: their keys are
// factory-local by design).
func TestTermIDAgreesWithKeyEquality(t *testing.T) {
	f := NewNullFactory()
	pool := []Term{
		Constant("a"), Constant("b"), Constant("a"), Constant(""),
		Variable("a"), Variable("X"), Variable("X"),
		Fresh(0), Fresh(1), Fresh(42), Fresh(1),
	}
	for i := 0; i < 4; i++ {
		n, _ := f.Intern("k"+string(rune('0'+i%3)), 1)
		pool = append(pool, n)
	}
	for _, s := range pool {
		for _, u := range pool {
			idEq := IDOf(s) == IDOf(u)
			keyEq := s.Key() == u.Key()
			if idEq != keyEq {
				t.Errorf("IDOf(%v)==IDOf(%v) is %v but Key equality is %v", s, u, idEq, keyEq)
			}
		}
	}
}

// Id-based atom equality must agree with the old Key()-string equality on
// randomly generated atoms over constants, fresh terms and one factory's
// nulls.
func TestAtomEqualityAgreesWithKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := NewNullFactory()
	var terms []Term
	for i := 0; i < 3; i++ {
		terms = append(terms, Constant(string(rune('a'+i))), Fresh(i))
		n, _ := f.Intern(string(rune('a'+i)), 1)
		terms = append(terms, n)
	}
	preds := []Predicate{{Name: "r", Arity: 2}, {Name: "s", Arity: 2}, {Name: "r", Arity: 3}}
	randAtom := func() *Atom {
		p := preds[rng.Intn(len(preds))]
		args := make([]Term, p.Arity)
		for i := range args {
			args[i] = terms[rng.Intn(len(terms))]
		}
		return NewAtom(p, args...)
	}
	atoms := make([]*Atom, 200)
	for i := range atoms {
		atoms[i] = randAtom()
	}
	for _, a := range atoms {
		for _, b := range atoms {
			if got, want := a.Equal(b), a.Key() == b.Key(); got != want {
				t.Fatalf("Equal(%v, %v) = %v, key equality = %v", a, b, got, want)
			}
		}
	}
}

// CanonicalKey must not depend on insertion order (ids are assigned in
// interning order, so this exercises the key-based canonicalization).
func TestCanonicalKeyInsertionOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := NewNullFactory()
	var atoms []*Atom
	for i := 0; i < 50; i++ {
		n, _ := f.Intern(string(rune(i)), 1)
		atoms = append(atoms,
			MakeAtom("e", Constant(string(rune('a'+i%7))), n),
			MakeAtom("p", n),
		)
	}
	in1 := NewInstance()
	for _, a := range atoms {
		in1.Add(a)
	}
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]*Atom{}, atoms...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		in2 := NewInstance()
		for _, a := range shuffled {
			in2.Add(a)
		}
		if in1.CanonicalKey() != in2.CanonicalKey() {
			t.Fatalf("CanonicalKey differs across insertion orders (trial %d)", trial)
		}
	}
}

// Clone must share atoms but be fully independent for mutation.
func TestCloneSharesAtomsIndependently(t *testing.T) {
	in := NewDatabase(
		MakeAtom("e", Constant("a"), Constant("b")),
		MakeAtom("e", Constant("b"), Constant("c")),
		MakeAtom("p", Constant("a")),
	)
	cl := in.Clone()
	if cl.CanonicalKey() != in.CanonicalKey() {
		t.Fatal("clone differs from original")
	}
	for _, a := range in.Atoms() {
		if cl.Canonical(a) != a {
			t.Fatal("clone must share the original's atom pointers")
		}
	}
	// Growing the clone must not leak into the original, and vice versa.
	extra := MakeAtom("p", Constant("z"))
	if !cl.Add(extra) {
		t.Fatal("fresh atom rejected")
	}
	if in.Has(extra) {
		t.Fatal("clone mutation visible in original")
	}
	if got := len(in.atPositionID(extra.pid, 0, extra.ids[0])); got != 0 {
		t.Fatalf("original index sees clone's atom (%d entries)", got)
	}
	extra2 := MakeAtom("q", Constant("w"))
	in.Add(extra2)
	if cl.Has(extra2) {
		t.Fatal("original mutation visible in clone")
	}
	if got := cl.Seq(extra); got != 3 {
		t.Fatalf("clone seq = %d, want 3", got)
	}
}

// TupleInterner must give one dense id per distinct tuple, resolving
// hash collisions exactly, and never retain the caller's slice.
func TestTupleInterner(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ti := NewTupleInterner()
	seen := make(map[string]int32)
	buf := make([]int32, 0, 8)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(5)
		buf = buf[:0]
		key := ""
		for j := 0; j < n; j++ {
			w := int32(rng.Intn(20) - 5)
			buf = append(buf, w)
			key += string(rune(w+100)) + ","
		}
		id, fresh := ti.Intern(buf)
		prev, ok := seen[key]
		if ok {
			if fresh || id != prev {
				t.Fatalf("tuple %v re-interned as %d (fresh=%v), want %d", buf, id, fresh, prev)
			}
		} else {
			if !fresh {
				t.Fatalf("tuple %v reported as known on first intern", buf)
			}
			seen[key] = id
		}
	}
	if ti.Len() != len(seen) {
		t.Fatalf("interner has %d tuples, want %d", ti.Len(), len(seen))
	}
}
