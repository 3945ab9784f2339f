// Package qos is the serving tier's quality-of-service policy layer: it
// decides how much chase each request gets. The paper's central hazard
// is non-uniform termination — whether the chase halts depends on the
// database, not the ontology alone — so a serving system cannot promise
// a latency bound from Σ. This package turns that hazard into a latency
// SLO with the production idiom of PDQ's BoundedChaser/KTerminationChaser:
// chase a reference instance to termination once, record the observed
// round count k as a LearnedBound next to the compile-cache entry, and
// serve subsequent requests under that budget.
//
// Three modes. Exact is today's behavior: run to fixpoint under whatever
// explicit budgets the request carries. Bounded serves under the learned
// round bound for the request's (fingerprint, variant), failing fast
// with ErrNoLearnedBound when none was profiled. Anytime serves whatever
// rounds fit a deadline (or an explicit round quota), stopping only at
// round boundaries (chase.Options.RoundGranularInterrupt) so the result
// is a whole-round prefix — deterministic and byte-identical across
// worker counts and across the fleet, like every parallel path in this
// repository. Learning rides on any exact run: Policy.Learn attaches a
// Recorder that stores the observed bound when the run finishes.
//
// Budget{Atoms, Rounds, Wall} is the one budget value below the request
// envelopes, and Budget.Validate the one negative-budget check.
// Policy.Apply resolves a policy against a request's explicit Budget
// into a Decision, whose Budget is the effective one; Decision.Tighten is
// the one tighter-wins rule, and on a tie the policy wins (the truncation
// marker names the policy's Source). The service layer folds rejections
// into its error taxonomy and names the budget that stopped a truncated
// run (Decision.TruncationSource) in the CLI's "% truncated" marker.
// Learned bounds ship to cold fleet workers with the ontology pull
// (EncodeBounds); Budget and Policy ride the fleet Submit frame through
// their Encode/Read pairs.
package qos

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
)

// ErrNoLearnedBound reports a Bounded-mode request for an (ontology,
// variant) pair that was never profiled. It is wrap-checkable through
// the service error taxonomy: errors.Is(err, qos.ErrNoLearnedBound)
// holds on the *service.Error a rejected submission returns.
var ErrNoLearnedBound = errors.New("no learned bound")

// Mode selects the serving policy for one request.
type Mode int

const (
	// Exact runs the chase to fixpoint under the request's explicit
	// budgets — the pre-QoS behavior and the zero value.
	Exact Mode = iota
	// Bounded serves under the learned round bound for the request's
	// (fingerprint, variant); absent a bound the request is rejected
	// with ErrNoLearnedBound.
	Bounded
	// Anytime serves whatever whole rounds fit the policy's deadline
	// and/or round quota, with a deterministic truncation marker.
	Anytime
)

// String returns the mode's wire and CLI name.
func (m Mode) String() string {
	switch m {
	case Bounded:
		return "bounded"
	case Anytime:
		return "anytime"
	default:
		return "exact"
	}
}

// Source names the budget that stopped a truncated run — the vocabulary
// of the CLI's "% truncated: <source> budget exhausted" marker.
type Source int

const (
	// SourceFlag is an explicit request budget (-max-atoms, -max-rounds,
	// -wall).
	SourceFlag Source = iota
	// SourceDeadline is the anytime policy's budget — the wall deadline
	// or its explicit round quota.
	SourceDeadline
	// SourceLearnedBound is the bounded policy's learned round count.
	SourceLearnedBound
)

// String returns the source's marker name.
func (s Source) String() string {
	switch s {
	case SourceDeadline:
		return "deadline"
	case SourceLearnedBound:
		return "learned-bound"
	default:
		return "flag"
	}
}

// Policy is a request's QoS ask. The zero value is Exact with no
// learning — byte-for-byte today's behavior.
type Policy struct {
	Mode Mode
	// Deadline is the anytime wall budget (Anytime mode only).
	Deadline time.Duration
	// Rounds is the anytime round quota (Anytime mode only): serve at
	// most this many rounds. A fixed quota is the deterministic form of
	// anytime — tests and goldens use it because a wall deadline's
	// observed round count depends on machine speed.
	Rounds int
	// Learn profiles this run: when it finishes, the observed round and
	// atom counts are stored as the (fingerprint, variant) learned bound.
	// Only meaningful with Exact — a budget-truncated learn records the
	// prefix with Observed=false.
	Learn bool
}

// IsZero reports whether the policy is the default (exact, no learning).
func (p Policy) IsZero() bool { return p == Policy{} }

// String renders the policy in Parse's grammar.
func (p Policy) String() string {
	switch p.Mode {
	case Bounded:
		return "bounded"
	case Anytime:
		var parts []string
		if p.Deadline > 0 {
			parts = append(parts, p.Deadline.String())
		}
		if p.Rounds > 0 {
			parts = append(parts, strconv.Itoa(p.Rounds)+"r")
		}
		return "anytime:" + strings.Join(parts, ",")
	default:
		if p.Learn {
			return "learn"
		}
		return "exact"
	}
}

// Parse parses the CLI and request-file policy grammar:
//
//	""            exact (the default)
//	"exact"       exact
//	"learn"       exact, storing the learned bound when the run finishes
//	"bounded"     serve under the learned bound
//	"anytime:SPEC" anytime; SPEC is a deadline ("250ms"), a round quota
//	              ("3r"), or both comma-separated ("250ms,3r")
func Parse(s string) (Policy, error) {
	switch s {
	case "", "exact":
		return Policy{}, nil
	case "learn":
		return Policy{Learn: true}, nil
	case "bounded":
		return Policy{Mode: Bounded}, nil
	}
	spec, ok := strings.CutPrefix(s, "anytime:")
	if !ok || spec == "" {
		return Policy{}, fmt.Errorf("unknown QoS policy %q (want exact, learn, bounded, or anytime:<deadline>[,<k>r])", s)
	}
	p := Policy{Mode: Anytime}
	for _, part := range strings.Split(spec, ",") {
		if n, found := strings.CutSuffix(part, "r"); found {
			if k, err := strconv.Atoi(n); err == nil {
				if k <= 0 || p.Rounds != 0 {
					return Policy{}, fmt.Errorf("bad anytime round quota %q", part)
				}
				p.Rounds = k
				continue
			}
		}
		d, err := time.ParseDuration(part)
		if err != nil || d <= 0 || p.Deadline != 0 {
			return Policy{}, fmt.Errorf("bad anytime deadline %q", part)
		}
		p.Deadline = d
	}
	return p, nil
}

// BoundStore is the read side of the learned-bound artifact store;
// *compile.Cache implements it.
type BoundStore interface {
	Bound(fp compile.Fingerprint, v chase.Variant) (compile.LearnedBound, bool)
}

// Budget is a run's atom, round and wall limits; a zero limit is
// unlimited. It is the only budget value below the request envelopes.
type Budget struct {
	Atoms  int
	Rounds int
	Wall   time.Duration
}

// Validate rejects a negative limit.
func (b Budget) Validate() error {
	if b.Atoms < 0 || b.Rounds < 0 || b.Wall < 0 {
		return fmt.Errorf("negative budget (atoms %d, rounds %d, wall %v)", b.Atoms, b.Rounds, b.Wall)
	}
	return nil
}

// Decision is a resolved policy: the effective budget a run executes
// under, its round and wall limits each tagged with the Source that
// imposed it. The zero value is the exact decision with no budgets.
type Decision struct {
	Mode  Mode
	Learn bool
	// Bound is the learned bound a Bounded decision resolved (zero
	// otherwise).
	Bound compile.LearnedBound
	// Budget is the effective budget (0 = unlimited per limit).
	Budget       Budget
	RoundsSource Source
	WallSource   Source
	// Deadline is the anytime deadline, kept for slack accounting (how
	// much of the deadline the run left unused).
	Deadline time.Duration
}

// Tighten is the one tighter-wins rule: each limit set in policy
// replaces the decision's when that is unlimited or no tighter (the
// policy wins ties), tagging a replaced round or wall limit with src.
func (d *Decision) Tighten(policy Budget, src Source) {
	tighten(&d.Budget.Atoms, policy.Atoms)
	if tighten(&d.Budget.Rounds, policy.Rounds) {
		d.RoundsSource = src
	}
	if tighten(&d.Budget.Wall, policy.Wall) {
		d.WallSource = src
	}
}

// tighten lowers *cur to a set limit that is no looser, reporting
// whether it did.
func tighten[T int | time.Duration](cur *T, limit T) bool {
	if limit <= 0 || (*cur != 0 && limit > *cur) {
		return false
	}
	*cur = limit
	return true
}

// Apply resolves the policy against the learned-bound store and the
// request's explicit budget into the effective one: the tighter of the
// explicit and policy-derived limit wins (Decision.Tighten), and the
// Decision records which one that was so truncated output can name its
// budget source.
func (p Policy) Apply(store BoundStore, fp compile.Fingerprint, v chase.Variant, explicit Budget) (Decision, error) {
	if err := explicit.Validate(); err != nil {
		return Decision{}, err
	}
	if err := (Budget{Rounds: p.Rounds, Wall: p.Deadline}).Validate(); err != nil {
		return Decision{}, fmt.Errorf("QoS policy: %w", err)
	}
	if p.Learn && p.Mode != Exact {
		return Decision{}, fmt.Errorf("bound learning requires an exact reference run, not %s", p.Mode)
	}
	d := Decision{Mode: p.Mode, Learn: p.Learn, Budget: explicit}
	switch p.Mode {
	case Exact:
	case Bounded:
		b, ok := store.Bound(fp, v)
		if !ok {
			return Decision{}, fmt.Errorf("%w for ontology %s variant %s (profile one with a learn-mode run first)", ErrNoLearnedBound, fp, v)
		}
		d.Bound = b
		d.Tighten(Budget{Rounds: b.Rounds}, SourceLearnedBound)
	case Anytime:
		if p.Deadline == 0 && p.Rounds == 0 {
			return Decision{}, errors.New("anytime policy needs a positive deadline or round quota")
		}
		d.Tighten(Budget{Rounds: p.Rounds, Wall: p.Deadline}, SourceDeadline)
		d.Deadline = p.Deadline
	default:
		return Decision{}, fmt.Errorf("unknown QoS mode %d", p.Mode)
	}
	return d, nil
}

// RoundGranular reports whether runs under this decision must stop only
// at round boundaries (chase.Options.RoundGranularInterrupt): anytime
// results are pinned byte-identical across worker counts, so a deadline
// may never tear a round.
func (d Decision) RoundGranular() bool { return d.Mode == Anytime }

// TruncationSource names the budget that stopped a run reported as not
// terminated, given the run's final statistics. The resolution is
// deterministic — computed from the decision and the stats, never from
// timing: a round-budget exhaustion is attributed to the round budget's
// source, a mid-round atom-budget break to the explicit flag, and
// anything else (a wall expiry) to the wall budget's source.
func (d Decision) TruncationSource(st chase.Stats) Source {
	if d.Budget.Rounds > 0 && st.Rounds >= d.Budget.Rounds {
		return d.RoundsSource
	}
	if d.Budget.Atoms > 0 && st.Atoms > d.Budget.Atoms {
		return SourceFlag
	}
	return d.WallSource
}
