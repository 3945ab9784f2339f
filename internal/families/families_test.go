package families

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/logic"
	"repro/internal/tgds"
)

// Proposition 4.5: the chase of D_n is finite with maxdepth exactly n−1,
// although the same Σ has an infinite chase on the diagonal database.
func TestProp45(t *testing.T) {
	for _, n := range []int{2, 3, 5, 9} {
		w := Prop45(n)
		res := chase.Run(w.Database, w.Sigma, chase.Options{MaxAtoms: 10000})
		if !res.Terminated {
			t.Fatalf("n=%d: chase must terminate", n)
		}
		if res.MaxDepth() != n-1 {
			t.Fatalf("n=%d: maxdepth = %d, want %d", n, res.MaxDepth(), n-1)
		}
	}
	w := Prop45(3)
	res := chase.Run(Prop45Infinite(), w.Sigma, chase.Options{MaxAtoms: 200})
	if res.Terminated {
		t.Fatal("diagonal database must chase forever (Σ ∉ CT)")
	}
}

// Theorem 6.5 / Claim E.1: the R_i relation of the SL family holds exactly
// ℓ·m^(i·m) tuples.
func TestSLLowerCounts(t *testing.T) {
	cases := []struct{ l, n, m int }{
		{1, 1, 2}, {1, 2, 2}, {2, 2, 2}, {1, 2, 3}, {3, 1, 1},
	}
	for _, c := range cases {
		w := SLLower(c.l, c.n, c.m)
		if got := w.Sigma.Classify(); got != tgds.ClassSL {
			t.Fatalf("(%d,%d,%d): class = %v, want SL", c.l, c.n, c.m, got)
		}
		res := chase.Run(w.Database, w.Sigma, chase.Options{MaxAtoms: 500000})
		if !res.Terminated {
			t.Fatalf("(%d,%d,%d): chase must terminate", c.l, c.n, c.m)
		}
		for i := 1; i <= c.n; i++ {
			want := c.l * int(math.Pow(float64(c.m), float64(i*c.m)))
			pred := logic.Predicate{Name: rName(i), Arity: c.m}
			got := len(res.Instance.ByPred(pred))
			if got != want {
				t.Fatalf("(%d,%d,%d): |R_%d| = %d, want %d", c.l, c.n, c.m, i, got, want)
			}
		}
	}
}

// Theorem 7.6: the linear family reaches at least ℓ·2^(n·(2^m−1)) atoms in
// R_n, and the whole chase respects the lower bound.
func TestLLowerCounts(t *testing.T) {
	cases := []struct{ l, n, m int }{
		{1, 1, 1}, {1, 2, 1}, {2, 2, 1}, {1, 1, 2}, {1, 2, 2},
	}
	for _, c := range cases {
		w := LLower(c.l, c.n, c.m)
		if got := w.Sigma.Classify(); got != tgds.ClassL {
			t.Fatalf("(%d,%d,%d): class = %v, want L", c.l, c.n, c.m, got)
		}
		res := chase.Run(w.Database, w.Sigma, chase.Options{MaxAtoms: 2000000})
		if !res.Terminated {
			t.Fatalf("(%d,%d,%d): chase must terminate", c.l, c.n, c.m)
		}
		want := float64(c.l) * math.Pow(2, float64(c.n)*(math.Pow(2, float64(c.m))-1))
		pred := logic.Predicate{Name: rName(c.n), Arity: c.m + 3}
		got := len(res.Instance.ByPred(pred))
		if float64(got) < want {
			t.Fatalf("(%d,%d,%d): |R_%d| = %d < %v", c.l, c.n, c.m, c.n, got, want)
		}
	}
}

// Theorem 8.4: the guarded family is guarded, terminates, and meets the
// triple-exponential lower bound ℓ·2^(2^n·(2^(2^m)−1)).
func TestGLowerCounts(t *testing.T) {
	cases := []struct{ l, n, m int }{
		{1, 1, 1}, {2, 1, 1},
	}
	if !testing.Short() {
		// The (1,2,1) chase materializes ~740k atoms (~20s); skipped with
		// -short, always covered by the XP-LB-G experiment.
		cases = append(cases, struct{ l, n, m int }{1, 2, 1})
	}
	for _, c := range cases {
		w := GLower(c.l, c.n, c.m)
		if got := w.Sigma.Classify(); got != tgds.ClassG {
			t.Fatalf("(%d,%d,%d): class = %v, want G", c.l, c.n, c.m, got)
		}
		res := chase.Run(w.Database, w.Sigma, chase.Options{MaxAtoms: 3000000})
		if !res.Terminated {
			t.Fatalf("(%d,%d,%d): chase must terminate", c.l, c.n, c.m)
		}
		want := float64(c.l) * math.Pow(2, math.Pow(2, float64(c.n))*(math.Pow(2, math.Pow(2, float64(c.m)))-1))
		if float64(res.Instance.Len()) < want {
			t.Fatalf("(%d,%d,%d): |chase| = %d < %v", c.l, c.n, c.m, res.Instance.Len(), want)
		}
		// Claim E.15 per stratum: stratum j holds at least
		// 2^((j+1)·(2^(2^m)−1)) nodes.
		strata := 1 << c.n
		for j := 0; j < strata; j++ {
			nodes := GLowerNodeCount(res.Instance, c.n, j)
			wantNodes := int(math.Pow(2, float64(j+1)*(math.Pow(2, math.Pow(2, float64(c.m)))-1)))
			if nodes < wantNodes*c.l {
				t.Fatalf("(%d,%d,%d): stratum %d has %d nodes, want ≥ %d",
					c.l, c.n, c.m, j, nodes, wantNodes*c.l)
			}
		}
	}
}

func TestCriticalDatabase(t *testing.T) {
	w := SLLower(1, 1, 2)
	db := CriticalDatabase(w.Sigma)
	if db.Len() != len(w.Sigma.Schema()) {
		t.Fatalf("critical database = %v", db)
	}
	for _, a := range db.Atoms() {
		for _, term := range a.Args {
			if term != logic.Term(logic.Constant("crit")) {
				t.Fatalf("atom %v must use the single constant", a)
			}
		}
	}
}

func TestUniversity(t *testing.T) {
	w := University(2, 7)
	// The ontology happens to be simple linear (hence guarded a fortiori),
	// so the cheapest decider applies.
	if got := w.Sigma.Classify(); got == tgds.ClassTGD {
		t.Fatalf("ontology class = %v, must be decidable", got)
	}
	if !w.Database.IsDatabase() || w.Database.Len() == 0 {
		t.Fatal("workload database must be a non-empty set of facts")
	}
	res := chase.Run(w.Database, w.Sigma, chase.Options{MaxAtoms: 100000})
	if !res.Terminated {
		t.Fatal("the university ontology terminates on every database")
	}
	// Every student ends up with an advisor atom (possibly null-valued).
	students := res.Instance.ByPred(logic.Predicate{Name: "student", Arity: 1})
	if len(students) == 0 {
		t.Fatal("students must be derived from enrollments")
	}
	advised := map[logic.Term]bool{}
	for _, a := range res.Instance.ByPred(logic.Predicate{Name: "advisor", Arity: 2}) {
		advised[a.Args[0]] = true
	}
	for _, s := range students {
		if !advised[s.Args[0]] {
			t.Fatalf("student %v has no advisor", s)
		}
	}
	// Determinism per seed.
	w2 := University(2, 7)
	if w.Database.CanonicalKey() != w2.Database.CanonicalKey() {
		t.Fatal("workload must be deterministic per seed")
	}
}

func TestRandomGenerators(t *testing.T) {
	cfg := DefaultRandomConfig()
	rngSeeds := []int64{1, 2, 3}
	for _, seed := range rngSeeds {
		rng := rand.New(rand.NewSource(seed))
		sl := RandomSimpleLinear(rng, cfg)
		if got := sl.Classify(); sl.Len() > 0 && got != tgds.ClassSL {
			t.Fatalf("random SL set classifies as %v:\n%v", got, sl)
		}
		g := RandomGuarded(rng, cfg)
		if got := g.Classify(); g.Len() > 0 && got == tgds.ClassTGD {
			t.Fatalf("random guarded set classifies as TGD:\n%v", g)
		}
		db := RandomDatabase(rng, g, 5, 3)
		if g.Len() > 0 && db.Len() == 0 {
			t.Fatal("random database must not be empty for non-empty schema")
		}
		if !db.IsDatabase() {
			t.Fatal("random database must be ground")
		}
	}
}
