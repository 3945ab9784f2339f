package runtime

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/logic"
	"repro/internal/parser"
)

// The tests in this file pin the Scheduler's worker-pool contract for a
// fleet submitted from one goroutine and collated by Gather: results in
// submission order, per-job errors, wall budgets, and cancellation
// through the submission context.

// runFleet submits jobs in order under ctx to a fresh scheduler whose
// queue holds the whole fleet, and returns the collated results.
func runFleet(t *testing.T, ctx context.Context, workers int, jobs []Job) []JobResult {
	t.Helper()
	s := NewScheduler(SchedulerConfig{Workers: workers, QueueBound: len(jobs)})
	defer s.Close()
	tickets := make([]*Ticket, len(jobs))
	for i, j := range jobs {
		tk, err := s.SubmitIn(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	return Gather(tickets)
}

func TestPoolResultsInSubmissionOrder(t *testing.T) {
	const n = 40
	var jobs []Job
	for i := 0; i < n; i++ {
		i := i
		jobs = append(jobs, Job{Name: fmt.Sprintf("job-%d", i), Run: func(context.Context) (any, error) {
			return i * i, nil
		}})
	}
	results := runFleet(t, context.Background(), 4, jobs)
	if len(results) != n {
		t.Fatalf("%d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Index != i || r.Name != fmt.Sprintf("job-%d", i) || r.Value != i*i || r.Err != nil ||
			r.TimedOut || r.Canceled {
			t.Fatalf("result %d out of order or wrong: %+v", i, r)
		}
	}
}

func TestPoolAggregatesFailures(t *testing.T) {
	boom := errors.New("boom")
	results := runFleet(t, context.Background(), 2, []Job{
		{Name: "ok", Run: func(context.Context) (any, error) { return 1, nil }},
		{Name: "bad", Run: func(context.Context) (any, error) { return nil, boom }},
	})
	if results[0].Err != nil || results[0].Value != 1 {
		t.Fatalf("ok job: %+v", results[0])
	}
	if !errors.Is(results[1].Err, boom) || results[1].Canceled || results[1].TimedOut {
		t.Fatalf("bad job: %+v, want a plain boom failure", results[1])
	}
}

func TestPoolWallBudgetTimesOut(t *testing.T) {
	results := runFleet(t, context.Background(), 2, []Job{{Name: "slow", Wall: 10 * time.Millisecond,
		Run: func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return "stopped", nil
		}}})
	if !results[0].TimedOut || results[0].Canceled || results[0].Value != "stopped" {
		t.Fatalf("result = %+v, want timed-out with value", results[0])
	}
}

// A submission-context deadline is the caller's event: a running job
// that surfaces it must be classified Canceled (like the queued jobs the
// same expiry skips), not a plain failure, and never TimedOut.
func TestPoolParentDeadlineClassifiedCanceled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	results := runFleet(t, ctx, 1, []Job{{Name: "obedient", Run: func(jctx context.Context) (any, error) {
		<-jctx.Done()
		return nil, jctx.Err()
	}}})
	if !results[0].Canceled || results[0].TimedOut || !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("result = %+v, want Canceled by the deadline and not TimedOut", results[0])
	}
}

func TestPoolCancellationSkipsQueuedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := []Job{{Name: "canceller", Run: func(context.Context) (any, error) {
		cancel()
		return nil, nil
	}}}
	const queued = 5
	for i := 0; i < queued; i++ {
		jobs = append(jobs, Job{Name: "queued", Run: func(context.Context) (any, error) {
			return nil, nil
		}})
	}
	results := runFleet(t, ctx, 1, jobs)
	if results[0].Canceled || results[0].Err != nil {
		t.Fatalf("canceller result %+v, want succeeded", results[0])
	}
	for _, r := range results[1:] {
		if !r.Canceled || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("queued job result %+v, want cancelled", r)
		}
	}
}

// A wall budget must bound the run even when a single round's collection
// phase dwarfs it: Interrupt is polled inside collection (sequentially and
// from shard workers), so the overshoot is bounded by the poll interval,
// not by the round.
func TestChaseJobWallBudgetInterruptsCollectPhase(t *testing.T) {
	// Round 2 collects the e × e cross join (~2.25M matches) in one round.
	db := logic.NewInstance()
	for i := 0; i < 1500; i++ {
		db.Add(logic.MakeAtom("s", logic.Constant(fmt.Sprintf("c%d", i))))
	}
	sigma := parser.MustParseRules(`
		s(X) -> e(X, X).
		e(X, Y), e(Z, W) -> p(X).
	`)
	start := time.Now()
	for _, exec := range []chase.Executor{nil, NewExecutor(4)} {
		j := ChaseJob("cross-join", db, sigma, chase.Options{Executor: exec})
		j.Wall = 20 * time.Millisecond
		results := runFleet(t, context.Background(), 1, []Job{j})
		res := results[0].Value.(*chase.Result)
		if res.Terminated {
			t.Fatal("wall-capped cross join reported termination")
		}
	}
	// Generous bound: an un-polled collect phase would run the full cross
	// join (hundreds of milliseconds to seconds, more under -race).
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wall budget overshot the collect phase: %v elapsed", elapsed)
	}
}

func TestChaseJobBudgets(t *testing.T) {
	db := parser.MustParseDatabase(`e(a, b).`)
	infinite := parser.MustParseRules(`e(X, Y) -> ∃Z e(Y, Z).`)
	finite := parser.MustParseRules(`e(X, Y) -> p(X).`)

	// MaxRounds backstops the wall-clock budget so a broken Interrupt cannot
	// hang the test; the wall budget fires orders of magnitude earlier.
	wallCapped := ChaseJob("wall-capped", db, infinite, chase.Options{MaxRounds: 1 << 30})
	wallCapped.Wall = 30 * time.Millisecond
	results := runFleet(t, context.Background(), 2, []Job{
		ChaseJob("finite", db, finite, chase.Options{}),
		ChaseJob("atom-capped", db, infinite, chase.Options{MaxAtoms: 50}),
		ChaseJob("round-capped", db, infinite, chase.Options{MaxRounds: 7}),
		wallCapped,
	})
	for _, r := range results[:3] {
		if r.Err != nil || r.TimedOut || r.Canceled {
			t.Fatalf("%s: %+v, want succeeded", r.Name, r)
		}
	}

	fin := results[0].Value.(*chase.Result)
	if !fin.Terminated || fin.Instance.Len() != 2 {
		t.Fatalf("finite job: %+v", fin.Stats)
	}
	atoms := results[1].Value.(*chase.Result)
	if atoms.Terminated || atoms.Instance.Len() <= 50 {
		t.Fatalf("atom-capped job terminated=%v len=%d", atoms.Terminated, atoms.Instance.Len())
	}
	rounds := results[2].Value.(*chase.Result)
	if rounds.Terminated || rounds.Stats.Rounds != 7 {
		t.Fatalf("round-capped job terminated=%v rounds=%d", rounds.Terminated, rounds.Stats.Rounds)
	}
	wall := results[3].Value.(*chase.Result)
	if wall.Terminated {
		t.Fatal("wall-capped job reported termination")
	}
	if !results[3].TimedOut || results[3].Err != nil {
		t.Fatalf("wall-capped job not flagged TimedOut: %+v", results[3])
	}
}
