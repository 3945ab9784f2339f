package families

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/tgds"
)

// GLower builds the guarded family Σ_{n,m} of Theorem 8.4 together with
// the database D_ℓ = { Node(c1,c1,0,1), ..., Node(cℓ,cℓ,0,1) }. For each
// database constant the chase builds 2^n strata of full binary trees of
// depth 2^(2^m)−1, yielding |chase(D_ℓ, Σ_{n,m})| ≥ ℓ·2^(2^n·(2^(2^m)−1)).
//
// Stratum ids are n-bit counters stored in the binary predicates S_1..S_n
// (S_n is the least significant bit); node depths are 2^m-bit counters
// stored in Depth(node, digit-id, bit) atoms, where digit ids are m-bit
// tuples generated by Did and ordered by Succ (the all-ones id is the
// least significant digit). Counter increments classify digits as pivot /
// change / copy in the standard binary-increment fashion.
//
// Three of the paper's displayed TGDs (the DPivot/DChange base rules and
// the NonMaxDepth rule) lack a guard and leave the 0/1 bindings free; we
// prepend the Did atom as guard exactly as the paper's own Succ rules do.
// The stratum-increment rules are generated for
// every i ∈ [n] (the paper displays i ∈ {2..n}, which would leave the new
// root's S_1 bit unset).
func GLower(l, n, m int) Workload {
	set := tgds.NewSet()
	x, y, z, o, w := v("X"), v("Y"), v("Z"), v("O"), v("W")
	wp := v("Wp")

	node := func(a, b, zz, oo logic.Term) *logic.Atom { return logic.MakeAtom("Node", a, b, zz, oo) }
	sName := func(i int) string { return fmt.Sprintf("S%d", i) }
	spName := func(i int) string { return fmt.Sprintf("SPivot%d", i) }
	scName := func(i int) string { return fmt.Sprintf("SChange%d", i) }
	syName := func(i int) string { return fmt.Sprintf("SCopy%d", i) }

	wvars := make([]logic.Term, m)
	for i := range wvars {
		wvars[i] = v("W", i+1)
	}
	wpvars := make([]logic.Term, m)
	for i := range wpvars {
		wpvars[i] = v("Wp", i+1)
	}
	rep := func(t logic.Term, k int) []logic.Term {
		out := make([]logic.Term, k)
		for i := range out {
			out[i] = t
		}
		return out
	}
	did := func(a, b, zz, oo logic.Term, digits []logic.Term) *logic.Atom {
		args := append([]logic.Term{a, b, zz, oo}, digits...)
		return logic.MakeAtom("Did", args...)
	}
	depth := func(a logic.Term, digits []logic.Term, bit logic.Term) *logic.Atom {
		args := append(append([]logic.Term{a}, digits...), bit)
		return logic.MakeAtom("Depth", args...)
	}
	succ := func(a, b, zz, oo logic.Term, from, to []logic.Term) *logic.Atom {
		args := append([]logic.Term{a, b, zz, oo}, from...)
		args = append(args, to...)
		return logic.MakeAtom("Succ", args...)
	}
	dmark := func(name string, a logic.Term, digits []logic.Term) *logic.Atom {
		return logic.MakeAtom(name, append([]logic.Term{a}, digits...)...)
	}

	// Roots of the 0-th stratum, with an all-zero stratum counter.
	rootHead := []*logic.Atom{logic.MakeAtom("Root", x)}
	for i := 1; i <= n; i++ {
		rootHead = append(rootHead, logic.MakeAtom(sName(i), x, z))
	}
	set.Add(tgds.MustNew([]*logic.Atom{node(x, x, z, o)}, rootHead))

	// Digit ids: the all-zero id, then flipping any zero to one.
	set.Add(tgds.MustNew(
		[]*logic.Atom{node(x, y, z, o)},
		[]*logic.Atom{did(x, y, z, o, rep(z, m))},
	))
	for i := 1; i <= m; i++ {
		from := make([]logic.Term, m)
		to := make([]logic.Term, m)
		copy(from, wvars)
		copy(to, wvars)
		from[i-1] = z
		to[i-1] = o
		body := did(x, y, z, o, from)
		set.Add(tgds.MustNew([]*logic.Atom{body}, []*logic.Atom{did(x, y, z, o, to)}))
	}

	// Root depth counters are all-zero.
	set.Add(tgds.MustNew(
		[]*logic.Atom{did(x, y, z, o, wvars), logic.MakeAtom("Root", y)},
		[]*logic.Atom{depth(y, wvars, z)},
	))

	// Successor relation over digit ids: (w1..w(i-1), 0, 1^(m-i)) + 1 =
	// (w1..w(i-1), 1, 0^(m-i)).
	for i := 1; i <= m; i++ {
		from := append(append(append([]logic.Term{}, wvars[:i-1]...), z), rep(o, m-i)...)
		to := append(append(append([]logic.Term{}, wvars[:i-1]...), o), rep(z, m-i)...)
		set.Add(tgds.MustNew(
			[]*logic.Atom{did(x, y, z, o, from)},
			[]*logic.Atom{succ(x, y, z, o, from, to)},
		))
	}

	// A node is below the last stratum if some stratum bit is zero, and
	// below the maximum depth if some depth bit is zero (guard fix: the
	// Did atom carries the 0/1 constants).
	for i := 1; i <= n; i++ {
		set.Add(tgds.MustNew(
			[]*logic.Atom{node(x, y, z, o), logic.MakeAtom(sName(i), y, z)},
			[]*logic.Atom{logic.MakeAtom("NonMaxStratum", y)},
		))
	}
	set.Add(tgds.MustNew(
		[]*logic.Atom{did(x, y, z, o, wvars), depth(y, wvars, z)},
		[]*logic.Atom{logic.MakeAtom("NonMaxDepth", y)},
	))

	// Non-max-depth nodes have two children in the same stratum.
	set.Add(tgds.MustNew(
		[]*logic.Atom{node(x, y, z, o), logic.MakeAtom("NonMaxDepth", y)},
		[]*logic.Atom{
			node(y, w, z, o), logic.MakeAtom("NonRoot", w),
			node(y, wp, z, o), logic.MakeAtom("NonRoot", wp),
		},
	))
	for i := 1; i <= n; i++ {
		set.Add(tgds.MustNew(
			[]*logic.Atom{node(x, y, z, o), logic.MakeAtom("NonRoot", y), logic.MakeAtom(sName(i), x, z)},
			[]*logic.Atom{logic.MakeAtom(sName(i), y, z)},
		))
		set.Add(tgds.MustNew(
			[]*logic.Atom{node(x, y, z, o), logic.MakeAtom("NonRoot", y), logic.MakeAtom(sName(i), x, o)},
			[]*logic.Atom{logic.MakeAtom(sName(i), y, o)},
		))
	}

	// Depth-increment digit classification (guard fixes on the two base
	// rules). The all-ones digit id is least significant.
	allOnes := rep(o, m)
	set.Add(tgds.MustNew(
		[]*logic.Atom{did(x, y, z, o, allOnes), depth(y, allOnes, z)},
		[]*logic.Atom{dmark("DPivot", y, allOnes)},
	))
	set.Add(tgds.MustNew(
		[]*logic.Atom{did(x, y, z, o, allOnes), depth(y, allOnes, o)},
		[]*logic.Atom{dmark("DChange", y, allOnes)},
	))
	set.Add(tgds.MustNew(
		[]*logic.Atom{succ(x, y, z, o, wvars, wpvars), dmark("DChange", y, wpvars), depth(y, wvars, z)},
		[]*logic.Atom{dmark("DPivot", y, wvars)},
	))
	set.Add(tgds.MustNew(
		[]*logic.Atom{succ(x, y, z, o, wvars, wpvars), dmark("DChange", y, wpvars), depth(y, wvars, o)},
		[]*logic.Atom{dmark("DChange", y, wvars)},
	))
	set.Add(tgds.MustNew(
		[]*logic.Atom{succ(x, y, z, o, wvars, wpvars), dmark("DPivot", y, wpvars)},
		[]*logic.Atom{dmark("DCopy", y, wvars)},
	))
	set.Add(tgds.MustNew(
		[]*logic.Atom{succ(x, y, z, o, wvars, wpvars), dmark("DCopy", y, wpvars)},
		[]*logic.Atom{dmark("DCopy", y, wvars)},
	))

	// A child's depth is its parent's depth plus one (x is the parent in
	// Did(x, y, ...)).
	set.Add(tgds.MustNew(
		[]*logic.Atom{did(x, y, z, o, wvars), logic.MakeAtom("NonRoot", y), dmark("DChange", x, wvars)},
		[]*logic.Atom{depth(y, wvars, z)},
	))
	set.Add(tgds.MustNew(
		[]*logic.Atom{did(x, y, z, o, wvars), logic.MakeAtom("NonRoot", y), dmark("DPivot", x, wvars)},
		[]*logic.Atom{depth(y, wvars, o)},
	))
	set.Add(tgds.MustNew(
		[]*logic.Atom{did(x, y, z, o, wvars), logic.MakeAtom("NonRoot", y), dmark("DCopy", x, wvars), depth(x, wvars, z)},
		[]*logic.Atom{depth(y, wvars, z)},
	))
	set.Add(tgds.MustNew(
		[]*logic.Atom{did(x, y, z, o, wvars), logic.MakeAtom("NonRoot", y), dmark("DCopy", x, wvars), depth(x, wvars, o)},
		[]*logic.Atom{depth(y, wvars, o)},
	))

	// Nodes below the last stratum sprout the root of a next-stratum tree.
	set.Add(tgds.MustNew(
		[]*logic.Atom{node(x, y, z, o), logic.MakeAtom("NonMaxStratum", y)},
		[]*logic.Atom{node(y, w, z, o), logic.MakeAtom("NewRoot", w)},
	))
	set.Add(tgds.MustNew(
		[]*logic.Atom{logic.MakeAtom("NewRoot", x)},
		[]*logic.Atom{logic.MakeAtom("Root", x)},
	))

	// Stratum-increment bit classification (S_n is least significant).
	set.Add(tgds.MustNew(
		[]*logic.Atom{node(x, y, z, o), logic.MakeAtom(sName(n), y, z)},
		[]*logic.Atom{logic.MakeAtom(spName(n), y)},
	))
	set.Add(tgds.MustNew(
		[]*logic.Atom{node(x, y, z, o), logic.MakeAtom(sName(n), y, o)},
		[]*logic.Atom{logic.MakeAtom(scName(n), y)},
	))
	for i := 2; i <= n; i++ {
		set.Add(tgds.MustNew(
			[]*logic.Atom{node(x, y, z, o), logic.MakeAtom(scName(i), y), logic.MakeAtom(sName(i-1), y, z)},
			[]*logic.Atom{logic.MakeAtom(spName(i-1), y)},
		))
		set.Add(tgds.MustNew(
			[]*logic.Atom{node(x, y, z, o), logic.MakeAtom(scName(i), y), logic.MakeAtom(sName(i-1), y, o)},
			[]*logic.Atom{logic.MakeAtom(scName(i-1), y)},
		))
		set.Add(tgds.MustNew(
			[]*logic.Atom{node(x, y, z, o), logic.MakeAtom(spName(i), y)},
			[]*logic.Atom{logic.MakeAtom(syName(i-1), y)},
		))
		set.Add(tgds.MustNew(
			[]*logic.Atom{node(x, y, z, o), logic.MakeAtom(syName(i), y)},
			[]*logic.Atom{logic.MakeAtom(syName(i-1), y)},
		))
	}

	// New roots carry their parent's stratum counter plus one (generated
	// for every bit i ∈ [n]; see the function comment).
	for i := 1; i <= n; i++ {
		set.Add(tgds.MustNew(
			[]*logic.Atom{node(x, y, z, o), logic.MakeAtom("NewRoot", y), logic.MakeAtom(scName(i), x)},
			[]*logic.Atom{logic.MakeAtom(sName(i), y, z)},
		))
		set.Add(tgds.MustNew(
			[]*logic.Atom{node(x, y, z, o), logic.MakeAtom("NewRoot", y), logic.MakeAtom(spName(i), x)},
			[]*logic.Atom{logic.MakeAtom(sName(i), y, o)},
		))
		set.Add(tgds.MustNew(
			[]*logic.Atom{node(x, y, z, o), logic.MakeAtom("NewRoot", y), logic.MakeAtom(syName(i), x), logic.MakeAtom(sName(i), x, z)},
			[]*logic.Atom{logic.MakeAtom(sName(i), y, z)},
		))
		set.Add(tgds.MustNew(
			[]*logic.Atom{node(x, y, z, o), logic.MakeAtom("NewRoot", y), logic.MakeAtom(syName(i), x), logic.MakeAtom(sName(i), x, o)},
			[]*logic.Atom{logic.MakeAtom(sName(i), y, o)},
		))
	}

	db := logic.NewInstance()
	zero, one := logic.Constant("0"), logic.Constant("1")
	for i := 1; i <= l; i++ {
		db.Add(logic.MakeAtom("Node", c("c", i), c("c", i), zero, one))
	}
	return Workload{
		Name:     fmt.Sprintf("thm8.4(ℓ=%d,n=%d,m=%d)", l, n, m),
		Database: db,
		Sigma:    set,
	}
}

// GLowerNodeCount returns the number of Node atoms in the chase that
// belong to stratum j (identified by the S_1..S_n bits of the child
// node), for verifying Claim E.15.
func GLowerNodeCount(inst *logic.Instance, n int, j int) int {
	// Decode the stratum of each node term from its S_i atoms.
	bit := make(map[int32]map[int]string) // node term id -> i -> "0"/"1"
	for i := 1; i <= n; i++ {
		p := logic.Predicate{Name: fmt.Sprintf("S%d", i), Arity: 2}
		for _, a := range inst.ByPred(p) {
			k := a.ArgID(0)
			if bit[k] == nil {
				bit[k] = make(map[int]string)
			}
			bit[k][i] = a.Args[1].String()
		}
	}
	count := 0
	nodePred := logic.Predicate{Name: "Node", Arity: 4}
	for _, a := range inst.ByPred(nodePred) {
		k := a.ArgID(1)
		bits, ok := bit[k]
		if !ok {
			continue
		}
		val := 0
		complete := true
		for i := 1; i <= n; i++ {
			b, ok := bits[i]
			if !ok {
				complete = false
				break
			}
			val <<= 1
			if b == "1" {
				val++
			}
		}
		if complete && val == j {
			count++
		}
	}
	return count
}
