package chase

import (
	"reflect"
	"testing"

	"repro/internal/parser"
)

// recorder counts observations and remembers the final callback.
type recorder struct {
	rounds     int
	doneCalls  int
	last       Stats
	terminated bool
}

func (r *recorder) ObserveRound(s Stats) { r.rounds++; r.last = s }
func (r *recorder) ObserveDone(s Stats, terminated bool) {
	r.doneCalls++
	r.last = s
	r.terminated = terminated
}

// TestObserverCallbacks: an Observer sees every round boundary plus
// exactly one done callback carrying the final statistics, and the
// observed run's result is byte-identical to the unobserved run.
func TestObserverCallbacks(t *testing.T) {
	dbSrc := `e(a, b). e(b, c).`
	rulesSrc := `e(X, Y) -> ∃Z e(Y, Z).
	             e(X, Y) -> p(X).`
	rec := &recorder{}
	obs := run(t, dbSrc, rulesSrc, Options{MaxAtoms: 60, Observer: rec})
	plain := run(t, dbSrc, rulesSrc, Options{MaxAtoms: 60})
	if got, want := obs.Instance.CanonicalKey(), plain.Instance.CanonicalKey(); got != want {
		t.Fatal("observer changed the chase result")
	}
	if rec.doneCalls != 1 {
		t.Fatalf("done calls = %d, want 1", rec.doneCalls)
	}
	if rec.rounds != obs.Stats.Rounds {
		t.Fatalf("observed %d rounds, stats say %d", rec.rounds, obs.Stats.Rounds)
	}
	if rec.last.Atoms != obs.Stats.Atoms || rec.terminated != obs.Terminated {
		t.Fatalf("final observation %+v/%v vs result %+v/%v",
			rec.last, rec.terminated, obs.Stats, obs.Terminated)
	}

	// A terminating run reports terminated=true to ObserveDone.
	rec2 := &recorder{}
	res := run(t, `r(a, b).`, `r(X, Y) -> p(X).`, Options{Observer: rec2})
	if !res.Terminated || !rec2.terminated || rec2.doneCalls != 1 {
		t.Fatalf("terminating run: result=%v observed=%v calls=%d",
			res.Terminated, rec2.terminated, rec2.doneCalls)
	}
}

func TestMultiObserver(t *testing.T) {
	if MultiObserver() != nil || MultiObserver(nil, nil) != nil {
		t.Fatal("empty fan-out is not nil")
	}
	a := &recorder{}
	if MultiObserver(nil, a, nil) != Observer(a) {
		t.Fatal("single live observer not returned directly")
	}
	b := &recorder{}
	m := MultiObserver(a, b)
	m.ObserveRound(Stats{Rounds: 1})
	m.ObserveDone(Stats{Rounds: 1}, true)
	for i, r := range []*recorder{a, b} {
		if r.rounds != 1 || r.doneCalls != 1 || !r.terminated {
			t.Fatalf("observer %d missed fan-out: %+v", i, r)
		}
	}
}

// TestMultiObserverRoundSequences: under a real run, every member of a
// MultiObserver — a full Observer and a RoundFunc alike — sees the same
// round sequence, one Stats per round boundary (the final round
// included), and each boundary reaches the members in list order.
func TestMultiObserverRoundSequences(t *testing.T) {
	db, err := parser.ParseDatabase(`r(a, b).`)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := parser.ParseRules(`r(X, Y) -> ∃Z r(Y, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	var seqA, seqB []Stats
	a := &recorder{}
	first := RoundFunc(func(s Stats) { order = append(order, "a"); seqA = append(seqA, s) })
	second := RoundFunc(func(s Stats) { order = append(order, "b"); seqB = append(seqB, s) })
	res := Run(db, rules, Options{MaxAtoms: 30, Observer: MultiObserver(first, a, second)})
	if res.Terminated {
		t.Fatal("expected budgeted run")
	}
	if len(seqA) == 0 || len(seqA) != res.Stats.Rounds || a.rounds != res.Stats.Rounds {
		t.Fatalf("rounds seen: a=%d recorder=%d, stats say %d", len(seqA), a.rounds, res.Stats.Rounds)
	}
	if !reflect.DeepEqual(seqA, seqB) {
		t.Fatalf("members saw different round sequences:\n%+v\n%+v", seqA, seqB)
	}
	for i, s := range seqA {
		if s.Rounds != i+1 {
			t.Fatalf("observation %d reports round %d", i, s.Rounds)
		}
		if order[2*i] != "a" || order[2*i+1] != "b" {
			t.Fatalf("round %d reached members out of order: %v", i+1, order[2*i:2*i+2])
		}
	}
	if last := seqA[len(seqA)-1]; last.Atoms != res.Stats.Atoms {
		t.Fatalf("final round observed %d atoms, result has %d", last.Atoms, res.Stats.Atoms)
	}
	if a.doneCalls != 1 || a.terminated {
		t.Fatalf("recorder done calls = %d (terminated=%v), want one non-terminated", a.doneCalls, a.terminated)
	}
}
