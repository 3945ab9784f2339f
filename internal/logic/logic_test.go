package logic

import (
	"testing"
	"testing/quick"
)

func TestTermKeys(t *testing.T) {
	if Constant("a").Key() == Variable("a").Key() {
		t.Fatal("constant and variable with same name must have distinct keys")
	}
	if Constant("a").Key() != Constant("a").Key() {
		t.Fatal("equal constants must share keys")
	}
	if Fresh(1).Key() == Constant("1").Key() {
		t.Fatal("fresh term must not collide with constant")
	}
}

func TestNullFactoryInterning(t *testing.T) {
	f := NewNullFactory()
	n1, created := f.Intern("k1", 1)
	if !created {
		t.Fatal("first intern should create")
	}
	n2, created := f.Intern("k1", 5)
	if created {
		t.Fatal("second intern should not create")
	}
	if n1 != n2 {
		t.Fatal("interning must return the identical null")
	}
	if n2.Depth() != 1 {
		t.Fatalf("depth of existing null must be preserved, got %d", n2.Depth())
	}
	n3, _ := f.Intern("k2", 3)
	if n3 == n1 {
		t.Fatal("distinct keys must give distinct nulls")
	}
	if f.Len() != 2 {
		t.Fatalf("factory should hold 2 nulls, has %d", f.Len())
	}
	if f.MaxDepth() != 3 {
		t.Fatalf("max depth should be 3, got %d", f.MaxDepth())
	}
}

func TestTermDepth(t *testing.T) {
	if TermDepth(Constant("c")) != 0 {
		t.Fatal("constants have depth 0")
	}
	f := NewNullFactory()
	n, _ := f.Intern("k", 7)
	if TermDepth(n) != 7 {
		t.Fatal("null depth not reported")
	}
}

func TestAtomKeyAndEquality(t *testing.T) {
	a1 := MakeAtom("R", Constant("a"), Constant("b"))
	a2 := MakeAtom("R", Constant("a"), Constant("b"))
	a3 := MakeAtom("R", Constant("b"), Constant("a"))
	if !a1.Equal(a2) {
		t.Fatal("structurally equal atoms must be Equal")
	}
	if a1.Equal(a3) {
		t.Fatal("different atoms must not be Equal")
	}
	if a1.String() != "R(a,b)" {
		t.Fatalf("unexpected rendering %q", a1)
	}
}

func TestAtomDepthAndGroundness(t *testing.T) {
	f := NewNullFactory()
	n, _ := f.Intern("k", 2)
	a := MakeAtom("R", Constant("a"), n)
	if a.Depth() != 2 {
		t.Fatalf("atom depth = %d, want 2", a.Depth())
	}
	if a.IsFact() {
		t.Fatal("atom with null is not a fact")
	}
	if !a.IsGround() {
		t.Fatal("atom with null and constant is ground")
	}
	b := MakeAtom("R", Variable("X"))
	if b.IsGround() {
		t.Fatal("atom with variable is not ground")
	}
}

func TestAtomVariablesAndPositions(t *testing.T) {
	x, y := Variable("X"), Variable("Y")
	a := MakeAtom("R", x, y, x)
	vars := a.Variables()
	if len(vars) != 2 || vars[0] != x || vars[1] != y {
		t.Fatalf("variables = %v", vars)
	}
	pos := a.VarPositions(x)
	if len(pos) != 2 || pos[0].Index != 1 || pos[1].Index != 3 {
		t.Fatalf("positions of X = %v", pos)
	}
}

func TestSubstitution(t *testing.T) {
	x, y := Variable("X"), Variable("Y")
	s := Substitution{x: Constant("a")}
	if s.Apply(x) != Term(Constant("a")) {
		t.Fatal("bound variable must be substituted")
	}
	if s.Apply(y) != Term(y) {
		t.Fatal("unbound variable must be unchanged")
	}
	a := s.ApplyAtom(MakeAtom("R", x, y))
	if a.String() != "R(a,Y)" {
		t.Fatalf("ApplyAtom = %v", a)
	}
	r := Substitution{x: Constant("a"), y: Constant("b")}.Restrict([]Variable{x})
	if len(r) != 1 || r[x] != Term(Constant("a")) {
		t.Fatalf("Restrict = %v", r)
	}
}

func TestInstanceBasics(t *testing.T) {
	in := NewInstance()
	a := MakeAtom("R", Constant("a"), Constant("b"))
	if !in.Add(a) {
		t.Fatal("first add must succeed")
	}
	if in.Add(MakeAtom("R", Constant("a"), Constant("b"))) {
		t.Fatal("duplicate add must be rejected")
	}
	if !in.Has(a) || in.Len() != 1 {
		t.Fatal("instance must contain the atom")
	}
	if got := len(in.ByPred(Predicate{Name: "R", Arity: 2})); got != 1 {
		t.Fatalf("ByPred = %d atoms", got)
	}
	if got := len(in.atPositionID(a.pid, 0, a.ids[0])); got != 1 {
		t.Fatalf("position index = %d atoms", got)
	}
	if got := len(in.ActiveDomain()); got != 2 {
		t.Fatalf("active domain size = %d", got)
	}
	if !in.IsDatabase() {
		t.Fatal("fact-only instance is a database")
	}
}

func TestInstanceCanonicalKey(t *testing.T) {
	in1 := NewDatabase(MakeAtom("R", Constant("a")), MakeAtom("S", Constant("b")))
	in2 := NewDatabase(MakeAtom("S", Constant("b")), MakeAtom("R", Constant("a")))
	if in1.CanonicalKey() != in2.CanonicalKey() {
		t.Fatal("canonical keys must be order-independent")
	}
}

func TestMatchAllSimpleJoin(t *testing.T) {
	in := NewDatabase(
		MakeAtom("R", Constant("a"), Constant("b")),
		MakeAtom("R", Constant("b"), Constant("c")),
		MakeAtom("S", Constant("b")),
	)
	x, y := Variable("X"), Variable("Y")
	body := []*Atom{MakeAtom("R", x, y), MakeAtom("S", y)}
	var results []string
	MatchAll(body, in, func(s Substitution) bool {
		results = append(results, s.String())
		return true
	})
	if len(results) != 1 {
		t.Fatalf("expected exactly one match, got %v", results)
	}
	if results[0] != "{X↦a, Y↦b}" {
		t.Fatalf("match = %q", results[0])
	}
}

func TestMatchAllRepeatedVariable(t *testing.T) {
	in := NewDatabase(
		MakeAtom("R", Constant("a"), Constant("a")),
		MakeAtom("R", Constant("a"), Constant("b")),
	)
	x := Variable("X")
	count := 0
	MatchAll([]*Atom{MakeAtom("R", x, x)}, in, func(Substitution) bool {
		count++
		return true
	})
	if count != 1 {
		t.Fatalf("diagonal pattern must match once, got %d", count)
	}
}

func TestMatchAllConstantInPattern(t *testing.T) {
	in := NewDatabase(
		MakeAtom("R", Constant("a"), Constant("b")),
		MakeAtom("R", Constant("c"), Constant("b")),
	)
	y := Variable("Y")
	count := 0
	MatchAll([]*Atom{MakeAtom("R", Constant("a"), y)}, in, func(Substitution) bool {
		count++
		return true
	})
	if count != 1 {
		t.Fatalf("constant-anchored pattern must match once, got %d", count)
	}
}

// TestMatchAllDelta checks the semi-naive decomposition the body programs
// implement: every homomorphism touching the delta is produced exactly
// once, and none that map entirely into the old portion.
func TestMatchAllDelta(t *testing.T) {
	in := NewInstance()
	in.Add(MakeAtom("E", Constant("a"), Constant("b")))
	in.Add(MakeAtom("E", Constant("b"), Constant("c")))
	deltaStart := in.Len()
	in.Add(MakeAtom("E", Constant("c"), Constant("d")))

	x, y, z := Variable("X"), Variable("Y"), Variable("Z")
	body := []*Atom{MakeAtom("E", x, y), MakeAtom("E", y, z)}

	seen := map[string]int{}
	var mm Matcher
	mm.MatchAllProgs(mm.CompileBody(body), in, deltaStart, func(m *Match) bool {
		seen[m.Substitution().String()]++
		return true
	})
	// Full join yields (a,b,c) and (b,c,d); only (b,c,d) touches delta.
	if len(seen) != 1 {
		t.Fatalf("delta join results = %v", seen)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("homomorphism %s produced %d times", k, n)
		}
	}
	if _, ok := seen["{X↦b, Y↦c, Z↦d}"]; !ok {
		t.Fatalf("missing delta match, got %v", seen)
	}
}

// TestMatchDeltaEquivalence property: for random small instances and each
// body of the random matcher harness (matchBodies), the semi-naive matches
// equal the full matches minus the old-only matches, each produced exactly
// once.
func TestMatchDeltaEquivalence(t *testing.T) {
	bodies := matchBodies()
	var mm Matcher
	progs := make([][]*BodyProgram, len(bodies))
	for bi, body := range bodies {
		progs[bi] = mm.CompileBody(body)
	}
	f := func(edges [][2]uint8, marks []uint8, split uint8) bool {
		if len(edges) > 12 {
			edges = edges[:12]
		}
		if len(marks) > 6 {
			marks = marks[:6]
		}
		name := func(c uint8) Term { return Constant(string('a' + rune(c%4))) }
		var atoms []*Atom
		for i := 0; i < len(edges) || i < len(marks); i++ {
			if i < len(edges) {
				atoms = append(atoms, MakeAtom("e", name(edges[i][0]), name(edges[i][1])))
			}
			if i < len(marks) {
				atoms = append(atoms, MakeAtom("p", name(marks[i])))
			}
		}
		old := NewInstance()
		for _, a := range atoms[:int(split)%(len(atoms)+1)] {
			old.Add(a)
		}
		// Rebuild the full instance so old atoms come first (matching
		// sequence order).
		combined := NewInstance()
		for _, a := range old.Atoms() {
			combined.Add(a)
		}
		deltaStart := combined.Len()
		for _, a := range atoms {
			combined.Add(a)
		}
		for bi, body := range bodies {
			want := map[string]bool{}
			MatchAll(body, combined, func(s Substitution) bool {
				want[s.String()] = true
				return true
			})
			MatchAll(body, old, func(s Substitution) bool {
				delete(want, s.String())
				return true
			})
			got := map[string]bool{}
			dup := false
			mm.MatchAllProgs(progs[bi], combined, deltaStart, func(m *Match) bool {
				k := m.Substitution().String()
				if got[k] {
					t.Logf("body %v: duplicate delta match %s", body, k)
					dup = true
					return false
				}
				got[k] = true
				return true
			})
			if dup || len(got) != len(want) {
				return false
			}
			for k := range want {
				if !got[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExtendOne(t *testing.T) {
	in := NewDatabase(
		MakeAtom("P", Constant("a"), Constant("b")),
	)
	x, z := Variable("X"), Variable("Z")
	head := []*Atom{MakeAtom("P", x, z)}
	got := ExtendOne(head, in, Substitution{x: Constant("a")})
	if got == nil {
		t.Fatal("extension must exist")
	}
	if got[z] != Term(Constant("b")) {
		t.Fatalf("extension = %v", got)
	}
	if ExtendOne(head, in, Substitution{x: Constant("zzz")}) != nil {
		t.Fatal("no extension should exist for unmatched base")
	}
}

func TestSortAtomsDeterminism(t *testing.T) {
	a := MakeAtom("B", Constant("x"))
	b := MakeAtom("A", Constant("x"))
	sorted := SortAtoms([]*Atom{a, b})
	if sorted[0] != b {
		t.Fatal("atoms must sort by key")
	}
}

// AppendWithin must return exactly the atoms a full scan finds over the
// term set, each once, including zero-arity atoms and atoms that repeat a
// term, and must ignore repeated ids in dom.
func TestAppendWithinMatchesScan(t *testing.T) {
	c := []Term{Constant("a"), Constant("b"), Constant("c"), Constant("d")}
	in := NewDatabase(
		MakeAtom("Z"),
		MakeAtom("P", c[0]),
		MakeAtom("P", c[3]),
		MakeAtom("R", c[0], c[0], c[1]),
		MakeAtom("R", c[1], c[0], c[2]),
		MakeAtom("R", c[1], c[1], c[1]),
		MakeAtom("S", c[2], c[0]),
		MakeAtom("S", c[0], c[1]),
	)
	f := func(picks []uint8) bool {
		dom := make([]int32, 0, len(picks))
		for _, p := range picks {
			dom = append(dom, IDOf(c[int(p)%len(c)]))
		}
		want := map[*Atom]bool{}
		for _, a := range in.Atoms() {
			all := true
			for i := range a.Args {
				found := false
				for _, d := range dom {
					found = found || d == a.ArgID(i)
				}
				all = all && found
			}
			if all {
				want[a] = true
			}
		}
		got := in.AppendWithin(nil, dom)
		if len(got) != len(want) {
			return false
		}
		for _, a := range got {
			if !want[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
