package service

import (
	"context"
	"fmt"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/qos"
	rt "repro/internal/runtime"
	"repro/internal/tgds"
)

// qosFingerprint resolves the fingerprint a QoS decision keys learned
// bounds by: the one the caller already knows (the request's own, or a
// checkpoint's) when it is set, else the canonical fingerprint of the
// resolved set — the same identity either way, computed only when the
// policy needs it.
func qosFingerprint(known compile.Fingerprint, sigma *tgds.Set) compile.Fingerprint {
	if known != (compile.Fingerprint{}) {
		return known
	}
	return compile.Of(sigma)
}

// admitEngine is the engine-admission tail SubmitChase and SubmitDelta
// share (ahead of admit): it resolves the QoS policy against the
// explicit budget — learned bounds keyed by qosFingerprint(known, σ), a
// rejection KindBadRequest with its cause wrap-checkable — and runs the
// job under the decision's budget; ref only labels the telemetry.
// Anytime runs stop only between rounds, so a deadline yields a
// whole-round prefix at any worker count; learn-mode runs record their
// bound.
func (s *Service) admitEngine(ctx context.Context, op Op, name string, meta RequestMeta, ref OntologyRef,
	known compile.Fingerprint, sigma *tgds.Set, explicit qos.Budget, opts chase.Options, job func(chase.Options) rt.Job) (*Ticket, error) {
	var fp compile.Fingerprint
	if meta.QoS.Mode == qos.Bounded || meta.QoS.Learn {
		fp = qosFingerprint(known, sigma)
	}
	dec, err := meta.QoS.Apply(s.cache, fp, opts.Variant, explicit)
	if err != nil {
		return nil, wrapErr(op, name, KindBadRequest, err)
	}
	opts.MaxAtoms, opts.MaxRounds = dec.Budget.Atoms, dec.Budget.Rounds
	opts.RoundGranularInterrupt = dec.RoundGranular()
	if dec.Learn {
		qos.NewRecorder(s.cache, fp, opts.Variant).Attach(&opts)
	}
	return s.admit(ctx, op, meta, ref, sigma, dec, job(opts))
}

// Bounds exports the learned termination bounds stored for a registered
// fingerprint, sorted by variant — the artifact a fleet coordinator
// ships to cold workers alongside the ontology pull (the coordinator's
// BoundSource seam).
func (s *Service) Bounds(fp compile.Fingerprint) []compile.VariantBound {
	return s.cache.Bounds(fp)
}

// StoreBounds records externally learned termination bounds for a
// fingerprint — the receiving side of the fleet cold-pull: a worker
// stores the coordinator's shipped bounds so bounded-mode jobs serve
// without a local reference run. Relearning wins, matching the compile
// cache's own StoreBound semantics.
func (s *Service) StoreBounds(fp compile.Fingerprint, bounds []compile.VariantBound) {
	for _, vb := range bounds {
		s.cache.StoreBound(fp, vb.Variant, vb.Bound)
	}
}

// experimentQoS resolves the QoS policy of an experiment request: only
// Anytime's deadline makes sense (it tightens the sweep's wall budget);
// bounded and learn-mode sweeps are rejected — an experiment runs many
// ontologies, so no single learned bound applies.
func experimentQoS(name string, req ExperimentRequest) (qos.Decision, error) {
	p := req.Meta.QoS
	if err := req.budget().Validate(); err != nil {
		return qos.Decision{}, wrapErr(OpExperiment, name, KindBadRequest, err)
	}
	dec := qos.Decision{Mode: p.Mode, Budget: req.budget()}
	if p.IsZero() {
		return dec, nil
	}
	if p.Mode != qos.Anytime || p.Learn || p.Rounds > 0 || p.Deadline <= 0 {
		return qos.Decision{}, wrapErr(OpExperiment, name, KindBadRequest,
			fmt.Errorf("experiment requests accept only an anytime deadline QoS policy, not %q", p))
	}
	dec.Tighten(qos.Budget{Wall: p.Deadline}, qos.SourceDeadline)
	dec.Deadline = p.Deadline
	return dec, nil
}

// decideQoS resolves the QoS policy of a decide request. Only the naive
// probe materializes a chase, so only it can serve under a policy:
// Bounded tightens the probe's atom cap to the learned atom count (the
// round-based bound does not fit the probe's atom-cap shape), Anytime's
// deadline tightens the job's wall budget. Every other combination is
// rejected rather than silently ignored.
func (s *Service) decideQoS(name string, req DecideRequest, sigma *tgds.Set) (qos.Decision, error) {
	p := req.Meta.QoS
	if err := req.budget().Validate(); err != nil {
		return qos.Decision{}, wrapErr(OpDecide, name, KindBadRequest, err)
	}
	dec := qos.Decision{Mode: p.Mode, Budget: req.budget()}
	if p.IsZero() {
		return dec, nil
	}
	if p.Learn {
		return qos.Decision{}, wrapErr(OpDecide, name, KindBadRequest,
			fmt.Errorf("bound learning rides on chase requests, not termination decisions"))
	}
	if method := orDefault(req.Method, "syntactic"); method != "naive" {
		return qos.Decision{}, wrapErr(OpDecide, name, KindBadRequest,
			fmt.Errorf("QoS policy %q applies to the naive probe only, not method %q", p, method))
	}
	switch p.Mode {
	case qos.Bounded:
		// The naive probe materializes the paper's chase, the
		// semi-oblivious variant; its bound is the one that applies.
		b, ok := s.cache.Bound(qosFingerprint(req.Ontology.Fingerprint, sigma), chase.SemiOblivious)
		if !ok {
			return qos.Decision{}, wrapErr(OpDecide, name, KindBadRequest,
				fmt.Errorf("%w for the naive probe (profile one with a learn-mode chase first)", qos.ErrNoLearnedBound))
		}
		dec.Bound = b
		dec.Tighten(qos.Budget{Atoms: b.Atoms}, qos.SourceLearnedBound)
	case qos.Anytime:
		if p.Rounds > 0 || p.Deadline <= 0 {
			return qos.Decision{}, wrapErr(OpDecide, name, KindBadRequest,
				fmt.Errorf("anytime termination decisions take a deadline, not a round quota"))
		}
		dec.Tighten(qos.Budget{Wall: p.Deadline}, qos.SourceDeadline)
		dec.Deadline = p.Deadline
	}
	return dec, nil
}
