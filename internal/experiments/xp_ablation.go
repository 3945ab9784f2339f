package experiments

import (
	"fmt"
	"math"

	"repro/internal/chase"
	"repro/internal/families"
	"repro/internal/guarded"
	"repro/internal/logic"
	"repro/internal/tgds"
)

func init() {
	register(Experiment{
		ID:    "XP-ABLATION",
		Title: "ablation: semi-naive delta matching in the chase engine",
		Claim: "(design choice) delta-restricted rounds keep work proportional to new atoms",
		Run:   runAblation,
	})
	register(Experiment{
		ID:    "XP-LIN-TYPES",
		Title: "reachable Σ-type space of the linearization (Section 8)",
		Claim: "lin(Σ) ranges over ≤ |sch|·ar^ar·2^(|sch|·ar^ar) types; the reachable fragment is far smaller",
		Run:   runLinTypes,
	})
}

func runAblation(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"workload", "mode", "triggers considered", "time", "|chase|"},
	}
	workloads := []families.Workload{
		families.SLLower(2, 2, 2),
		families.LLower(1, 1, 2),
		families.GLower(1, 1, 1),
	}
	if !cfg.Quick {
		workloads = append(workloads, families.SLLower(1, 2, 3))
	}
	for _, w := range workloads {
		for _, naive := range []bool{false, true} {
			mode := "semi-naive"
			if naive {
				mode = "naive rounds"
			}
			var res *chase.Result
			elapsed := timeIt(func() {
				res = chase.Run(w.Database, w.Sigma, chase.Options{NoSemiNaive: naive, MaxAtoms: 1000000})
			})
			t.AddRow(w.Name, mode, res.Stats.TriggersConsidered, elapsed.Round(10e3), res.Instance.Len())
		}
	}
	t.Note("identical results per workload; naive rounds re-enumerate every homomorphism each round")
	return t, nil
}

func runLinTypes(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"ontology", "|sch|", "ar", "type-space bound (log2)", "reachable types", "lin TGDs"},
	}
	cases := []struct {
		name  string
		db    *logic.Instance
		sigma *tgds.Set
	}{
		{
			"staffing (examples/ontology)",
			mustDB(`temp(ada). probation(ada).`),
			mustRules(`
				temp(E) -> ∃S supervises(S, E).
				supervises(S, E) -> emp(S).
				supervises(S, E), probation(E) -> temp(S).
				supervises(S, E), probation(E) -> probation(S).
			`),
		},
		{
			"cascade",
			mustDB(`e(a, b). s(a). e(b, b).`),
			mustRules(`
				e(X, Y), s(X) -> ∃Z e(Y, Z).
				e(X, Y), s(X) -> s(Y).
			`),
		},
	}
	if !cfg.Quick {
		w := families.GLower(1, 1, 1)
		cases = append(cases, struct {
			name  string
			db    *logic.Instance
			sigma *tgds.Set
		}{"thm8.4(1,1,1)", w.Database, w.Sigma})
	}
	for _, c := range cases {
		l, err := guarded.NewLinearizer(c.sigma)
		if err != nil {
			return nil, err
		}
		_, linSigma, err := l.Linearize(c.db)
		if err != nil {
			return nil, err
		}
		sch := float64(len(c.sigma.Schema()))
		ar := float64(c.sigma.Arity())
		// log2(|sch|·ar^ar·2^(|sch|·ar^ar)) = log2(sch) + ar·log2(ar) + sch·ar^ar
		log2Bound := math.Log2(sch) + ar*math.Log2(ar) + sch*math.Pow(ar, ar)
		t.AddRow(c.name, len(c.sigma.Schema()), c.sigma.Arity(),
			fmt.Sprintf("%.0f", log2Bound), l.TypeCount(), linSigma.Len())
	}
	t.Note("demand-driven generation from lin(D) is what makes the ChTrm(G) decider practical (reachable linearization, internal/guarded)")
	return t, nil
}
