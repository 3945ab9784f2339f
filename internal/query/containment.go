package query

import (
	"fmt"

	"repro/internal/logic"
)

// CQ containment via the classical Chandra–Merlin canonical-database
// (freezing) argument: q1 ⊑ q2 — every answer of q1 on every instance is
// an answer of q2 — iff there is a homomorphism from q2's body to the
// frozen body of q1 mapping q2's answer tuple onto q1's. The chase
// literature (and the paper's UCQ procedures) lean on exactly this
// characterization; here it also powers UCQ minimization.

// freeze turns the CQ's body into an instance by reading variables as
// fresh constants, and returns the frozen answer tuple.
func (q *CQ) freeze() (*logic.Instance, []logic.Term) {
	frozen := logic.NewInstance()
	mapTerm := func(t logic.Term) logic.Term {
		if v, ok := t.(logic.Variable); ok {
			return logic.Constant("⟪" + string(v) + "⟫")
		}
		return t
	}
	for _, a := range q.Body {
		args := make([]logic.Term, len(a.Args))
		for i, t := range a.Args {
			args[i] = mapTerm(t)
		}
		frozen.Add(logic.NewAtom(a.Pred, args...))
	}
	answer := make([]logic.Term, len(q.Answer))
	for i, v := range q.Answer {
		answer[i] = mapTerm(v)
	}
	return frozen, answer
}

// ContainedIn reports q ⊑ other (same answer arity required): every
// answer of q over every instance is an answer of other.
func (q *CQ) ContainedIn(other *CQ) (bool, error) {
	if len(q.Answer) != len(other.Answer) {
		return false, fmt.Errorf("query: containment requires equal answer arity (%d vs %d)", len(q.Answer), len(other.Answer))
	}
	frozen, frozenAnswer := q.freeze()
	found := false
	logic.MatchAll(other.Body, frozen, func(h logic.Substitution) bool {
		for i, v := range other.Answer {
			if logic.IDOf(h[v]) != logic.IDOf(frozenAnswer[i]) {
				return true
			}
		}
		found = true
		return false
	})
	return found, nil
}

// Equivalent reports q ≡ other (mutual containment).
func (q *CQ) Equivalent(other *CQ) (bool, error) {
	le, err := q.ContainedIn(other)
	if err != nil || !le {
		return false, err
	}
	return other.ContainedIn(q)
}

// Minimize removes disjuncts subsumed by other disjuncts: d is dropped
// when d ⊑ d' for some kept d' (so the union is unchanged). The result
// shares the remaining CQ values.
func (u *UCQ) Minimize() (*UCQ, error) {
	var kept []*CQ
	for i, d := range u.Disjuncts {
		subsumed := false
		for j, other := range u.Disjuncts {
			if i == j {
				continue
			}
			le, err := d.ContainedIn(other)
			if err != nil {
				return nil, err
			}
			if le {
				// Break ties deterministically: drop d only if other is
				// not in turn subsumed by d with a smaller index.
				ge, err := other.ContainedIn(d)
				if err != nil {
					return nil, err
				}
				if !ge || j < i {
					subsumed = true
					break
				}
			}
		}
		if !subsumed {
			kept = append(kept, d)
		}
	}
	return &UCQ{Disjuncts: kept}, nil
}
