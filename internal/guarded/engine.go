package guarded

import (
	"fmt"
	"slices"

	"repro/internal/logic"
	"repro/internal/tgds"
)

// Engine computes completions for a fixed guarded TGD set. It memoizes
// canonical type closures across calls, so repeated completions (as in
// linearization) share work.
type Engine struct {
	sigma  *tgds.Set
	states map[string]*state // canonicalizer key -> closure
	order  []*state
	fresh  int // placeholder counter
	// Reused scratch: deriveOver never re-enters itself.
	matcher logic.Matcher
	canon   canonicalizer
	own     []bool  // own[i]: the term canon renames to i+1 is own
	ids     []int32 // id tuple of a lifted atom
}

// state is the memoized closure of a canonical type: the atoms over the
// type's guard domain known to be in the chase.
type state struct {
	atoms *logic.Instance
}

// NewEngine validates that every TGD of sigma is guarded and returns an
// engine.
func NewEngine(sigma *tgds.Set) (*Engine, error) {
	for _, t := range sigma.TGDs {
		if !t.IsGuarded() {
			return nil, fmt.Errorf("guarded: TGD %v is not guarded", t)
		}
	}
	return &Engine{sigma: sigma, states: make(map[string]*state)}, nil
}

// stateOf returns the closure of the guard's canonical type over the atoms
// of the instance and the extra atoms within its domain, seeding it on
// first sight. It leaves the canonicalizer's renaming reset to the guard.
func (e *Engine) stateOf(guard *logic.Atom, in *logic.Instance, extra []*logic.Atom) *state {
	key := e.canon.keyOver(guard, in, extra)
	if s, ok := e.states[string(key)]; ok {
		return s
	}
	s := &state{atoms: logic.NewInstance()}
	for _, a := range e.canon.ren.build(guard, e.canon.atoms).Atoms {
		s.atoms.Add(a)
	}
	e.states[string(key)] = s
	e.order = append(e.order, s)
	return s
}

func (e *Engine) nextPlaceholder() placeholder {
	e.fresh++
	return placeholder(e.fresh)
}

// stabilize runs the global fixpoint: every state is expanded until no
// state's atom set grows. New states created during a pass are processed
// within the same pass.
func (e *Engine) stabilize() {
	for {
		changed := false
		for i := 0; i < len(e.order); i++ {
			if e.expandState(e.order[i]) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// expandState performs one derivation pass over a state and reports
// whether its closure grew.
func (e *Engine) expandState(s *state) bool {
	additions := e.deriveOver(s.atoms, nil)
	grew := false
	for _, a := range additions {
		if s.atoms.Add(a) {
			grew = true
		}
	}
	return grew
}

// deriveOver performs one round of derivation over the given atom set
// (the atoms of a node) and returns the new atoms over the node's own
// domain. A term belongs to the node's domain iff it is not a placeholder;
// when keep is non-nil it further restricts which terms count as "own"
// (used by the top-level completion where the node's domain is dom(I)).
//
// Derivations with existential witnesses spawn canonical child nodes whose
// closures are looked up (and seeded on demand); atoms of a child closure
// that mention only own terms are lifted back.
func (e *Engine) deriveOver(atoms *logic.Instance, keep map[int32]bool) []*logic.Atom {
	isOwn := func(t logic.Term, id int32) bool {
		if _, ph := t.(placeholder); ph {
			return false
		}
		return keep == nil || keep[id]
	}
	ownAtom := func(a *logic.Atom) bool {
		for i, t := range a.Args {
			if !isOwn(t, a.ArgID(i)) {
				return false
			}
		}
		return true
	}

	var additions []*logic.Atom
	for _, t := range e.sigma.TGDs {
		t := t
		e.matcher.MatchAllExt(t.Body, atoms, func(m *logic.Match) bool {
			mu := m.Substitution()
			for _, z := range t.Existential() {
				mu[z] = e.nextPlaceholder()
			}
			heads := make([]*logic.Atom, len(t.Head))
			for i, ha := range t.Head {
				heads[i] = mu.ApplyAtom(ha)
			}
			for _, ha := range heads {
				if ownAtom(ha) {
					if !atoms.Has(ha) {
						additions = append(additions, ha)
					}
					continue
				}
				// Child node: known atoms over dom(ha) from the current
				// node and the sibling head atoms.
				child := e.stateOf(ha, atoms, heads)
				ren := &e.canon.ren
				e.own = e.own[:0]
				for i, t := range ren.terms {
					e.own = append(e.own, isOwn(t, ren.ids[i]))
				}
				// Lift the child's atoms over own terms; an atom the node
				// already holds is recognized by its id tuple and costs
				// no allocation.
			lift:
				for _, ca := range child.atoms.Atoms() {
					e.ids = e.ids[:0]
					for _, t := range ca.Args {
						f, ok := t.(logic.Fresh)
						if !ok || f < 1 || int(f) > len(e.own) || !e.own[f-1] {
							continue lift
						}
						e.ids = append(e.ids, ren.ids[f-1])
					}
					if !atoms.HasIDs(ca.PredID(), e.ids) {
						additions = append(additions, ren.atomOf(ca, slices.Clone(e.ids)))
					}
				}
			}
			return true
		})
	}
	return additions
}

// Complete returns complete(I, Σ): every atom of chase(I, Σ) whose terms
// all occur in dom(I). It works for arbitrary guarded Σ, terminating even
// when the chase itself is infinite.
func Complete(in *logic.Instance, sigma *tgds.Set) (*logic.Instance, error) {
	e, err := NewEngine(sigma)
	if err != nil {
		return nil, err
	}
	return e.Complete(in), nil
}

// Complete is the memoizing variant of the package-level Complete.
func (e *Engine) Complete(in *logic.Instance) *logic.Instance {
	c := in.Clone()
	keep := make(map[int32]bool)
	for _, t := range in.ActiveDomain() {
		keep[logic.IDOf(t)] = true
	}
	for {
		additions := e.deriveOver(c, keep)
		// Resolve all pending child closures before judging progress.
		e.stabilize()
		grew := false
		for _, a := range additions {
			if c.Add(a) {
				grew = true
			}
		}
		if !grew {
			// One more derivation pass now that children stabilized: the
			// lifts may have become available only after stabilization.
			additions = e.deriveOver(c, keep)
			for _, a := range additions {
				if c.Add(a) {
					grew = true
				}
			}
			if !grew {
				return c
			}
		}
	}
}
