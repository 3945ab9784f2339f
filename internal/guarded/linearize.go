package guarded

import (
	"fmt"
	"strconv"

	"repro/internal/logic"
	"repro/internal/simplify"
	"repro/internal/tgds"
)

// TypeInfo associates a canonical Σ-type with its generated type predicate
// [τ]. The predicate keeps the full arity of the underlying guard
// predicate (the full-arity convention of the package comment).
type TypeInfo struct {
	Type *Type
	Pred logic.Predicate
}

// Linearizer converts guarded databases and TGD sets into linear ones per
// the paper's Appendix ("Linearization"). The paper's lin(Σ) ranges over
// all Σ-types; the linearizer generates only the types reachable from
// lin(D), which is sound and complete for chase equivalence and for the
// ChTrm(G) decider (reachable linearization, see the package comment).
type Linearizer struct {
	sigma  *tgds.Set
	engine *Engine
	reg    map[string]*TypeInfo // canonicalizer key -> info
	byPred map[logic.Predicate]*TypeInfo
	canon  canonicalizer
}

// NewLinearizer validates guardedness and returns a linearizer for Σ.
func NewLinearizer(sigma *tgds.Set) (*Linearizer, error) {
	e, err := NewEngine(sigma)
	if err != nil {
		return nil, err
	}
	return &Linearizer{
		sigma:  sigma,
		engine: e,
		reg:    make(map[string]*TypeInfo),
		byPred: make(map[logic.Predicate]*TypeInfo),
	}, nil
}

// typeOf returns the type predicate of α's canonical type in the
// completed instance (the atoms within dom(α)), registering it on first
// sight. Finding an already registered type allocates nothing.
func (l *Linearizer) typeOf(completed *logic.Instance, a *logic.Atom) *TypeInfo {
	key := l.canon.keyOver(a, completed, nil)
	if info, ok := l.reg[string(key)]; ok {
		return info
	}
	t := l.canon.ren.build(a, l.canon.atoms)
	name := "[τ" + strconv.Itoa(len(l.reg)+1) + ":" + t.Guard.Pred.Name + "]"
	info := &TypeInfo{
		Type: t,
		Pred: logic.Predicate{Name: name, Arity: t.Guard.Pred.Arity},
	}
	l.reg[string(key)] = info
	l.byPred[info.Pred] = info
	return info
}

// Info returns the type information registered for a generated predicate.
func (l *Linearizer) Info(p logic.Predicate) (*TypeInfo, bool) {
	info, ok := l.byPred[p]
	return info, ok
}

// TypeCount returns the number of distinct Σ-types materialized so far
// (after Linearize: the types reachable from lin(D)). The paper's bound
// on the full type space is |sch(Σ)|·ar(Σ)^ar(Σ)·2^(|sch(Σ)|·ar(Σ)^ar(Σ));
// the reachable fragment is usually dramatically smaller, which is what
// makes the ChTrm(G) decider practical.
func (l *Linearizer) TypeCount() int { return len(l.reg) }

// Database computes lin(D): every fact R(t̄) becomes [τ](t̄) where τ is
// the canonical form of R(t̄)'s type in chase(D, Σ).
func (l *Linearizer) Database(db *logic.Instance) (*logic.Instance, error) {
	if !db.IsDatabase() {
		return nil, fmt.Errorf("guarded: linearization input must be a database")
	}
	completed := l.engine.Complete(db)
	out := logic.NewInstance()
	for _, a := range db.Atoms() {
		out.Add(logic.NewAtom(l.typeOf(completed, a).Pred, a.Args...))
	}
	return out, nil
}

// Linearize computes lin(D) and the fragment of lin(Σ) reachable from the
// types of lin(D).
func (l *Linearizer) Linearize(db *logic.Instance) (*logic.Instance, *tgds.Set, error) {
	linDB, err := l.Database(db)
	if err != nil {
		return nil, nil, err
	}
	out := tgds.NewSet()
	var queue []*TypeInfo
	visited := make(map[*TypeInfo]bool)
	enqueue := func(info *TypeInfo) {
		if !visited[info] {
			visited[info] = true
			queue = append(queue, info)
		}
	}
	for _, a := range linDB.Atoms() {
		info, ok := l.byPred[a.Pred]
		if !ok {
			return nil, nil, fmt.Errorf("guarded: unregistered predicate %v", a.Pred)
		}
		enqueue(info)
	}
	for len(queue) > 0 {
		info := queue[0]
		queue = queue[1:]
		rules, children, err := l.linearizeType(info)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range rules {
			out.Add(r)
		}
		for _, c := range children {
			enqueue(c)
		}
	}
	return linDB, out, nil
}

// linearizeType produces the linearizations of every σ ∈ Σ induced by the
// type τ and a homomorphism h from body(σ) to atoms(τ) mapping guard(σ)
// onto guard(τ), together with the head types they mention.
func (l *Linearizer) linearizeType(info *TypeInfo) ([]*tgds.TGD, []*TypeInfo, error) {
	t := info.Type
	tatoms := logic.NewInstance()
	for _, a := range t.Atoms {
		tatoms.Add(a)
	}
	var rules []*tgds.TGD
	var children []*TypeInfo
	arSigma := l.sigma.Arity()
	for _, sig := range l.sigma.TGDs {
		guard := sig.Guard()
		var homs []logic.Substitution
		logic.MatchAll(sig.Body, tatoms, -1, func(h logic.Substitution) bool {
			if h.ApplyAtom(guard).Equal(t.Guard) {
				homs = append(homs, h.Clone())
			}
			return true
		})
		for _, h := range homs {
			rule, kids, err := l.linearizeTrigger(info, sig, h, arSigma)
			if err != nil {
				return nil, nil, err
			}
			rules = append(rules, rule)
			children = append(children, kids...)
		}
	}
	return rules, children, nil
}

func (l *Linearizer) linearizeTrigger(info *TypeInfo, sig *tgds.TGD, h logic.Substitution, arSigma int) (*tgds.TGD, []*TypeInfo, error) {
	// f maps head variables to canonical integers: frontier variables to
	// their h-images, the i-th existential variable to ar(Σ)+i.
	f := h.Clone()
	for i, z := range sig.Existential() {
		f[z] = logic.Fresh(arSigma + i + 1)
	}
	alphas := make([]*logic.Atom, len(sig.Head))
	for i, ha := range sig.Head {
		alphas[i] = f.ApplyAtom(ha)
	}
	// I = {α1..αm} ∪ atoms(τ), completed.
	inst := logic.NewInstance()
	for _, a := range info.Type.Atoms {
		inst.Add(a)
	}
	for _, a := range alphas {
		inst.Add(a)
	}
	completed := l.engine.Complete(inst)

	body := logic.NewAtom(info.Pred, sig.Guard().Args...)
	heads := make([]*logic.Atom, len(sig.Head))
	children := make([]*TypeInfo, len(alphas))
	for i, alpha := range alphas {
		children[i] = l.typeOf(completed, alpha)
		heads[i] = logic.NewAtom(children[i].Pred, sig.Head[i].Args...)
	}
	rule, err := tgds.New([]*logic.Atom{body}, heads)
	if err != nil {
		return nil, nil, fmt.Errorf("guarded: linearized TGD invalid: %v", err)
	}
	return rule, children, nil
}

// GSimple computes gsimple(D) = simple(lin(D)) and gsimple(Σ) =
// simple(lin(Σ)) (reachable fragment), the combination used by the
// ChTrm(G) characterization of Theorem 8.3.
func GSimple(db *logic.Instance, sigma *tgds.Set) (*logic.Instance, *tgds.Set, error) {
	l, err := NewLinearizer(sigma)
	if err != nil {
		return nil, nil, err
	}
	linDB, linSigma, err := l.Linearize(db)
	if err != nil {
		return nil, nil, err
	}
	gsDB := simplify.Database(linDB)
	gsSigma, err := simplify.Set(linSigma)
	if err != nil {
		return nil, nil, err
	}
	return gsDB, gsSigma, nil
}
