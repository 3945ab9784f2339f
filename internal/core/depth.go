package core

import (
	"fmt"

	"repro/internal/depgraph"
	"repro/internal/logic"
	"repro/internal/tgds"
)

// PredictDepthSL returns a per-database depth bound for a simple linear,
// D-weakly-acyclic Σ: the maximum finite rank over the D-supported
// positions of dg(Σ), following Claim C.1 in the proof of Lemma 6.2,
// corrected for empty-frontier TGDs. The claim's induction implicitly
// assumes every null is introduced along a special edge, but a TGD with
// an empty frontier (for example p(x,y) → ∃z q(z)) induces no special
// edges at all while its nulls have depth 1, which shifts downstream
// depths by one. When such a TGD is supported by
// the database we therefore add one. The returned bound satisfies
//
//	maxdepth(D, Σ) ≤ PredictDepthSL(D, Σ) ≤ d_SL(Σ) + 1.
//
// It errors when Σ is not simple linear or not D-weakly-acyclic (the
// rank of some supported position is infinite and no finite bound
// exists).
func PredictDepthSL(db *logic.Instance, sigma *tgds.Set) (int, error) {
	if c := sigma.Classify(); c != tgds.ClassSL {
		return 0, fmt.Errorf("core: PredictDepthSL requires simple linear TGDs, got class %v", c)
	}
	ranks, maxFinite := depgraph.SupportedRanks(db, sigma)
	for pos, r := range ranks {
		if r < 0 {
			return 0, fmt.Errorf("core: position %v has infinite rank: Σ is not D-weakly-acyclic", pos)
		}
	}
	supported := make(map[string]bool, len(ranks))
	for pos := range ranks {
		supported[pos.Pred.Name] = true
	}
	for _, t := range sigma.TGDs {
		if len(t.Existential()) > 0 && len(t.Frontier()) == 0 && supported[t.Body[0].Pred.Name] {
			return maxFinite + 1, nil
		}
	}
	return maxFinite, nil
}
