package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/families"
)

var errFleetProbe = errors.New("fleet probe failure")

// The streaming regression contract: a fleet run through the streaming
// Scheduler — submitted incrementally against a small bounded queue,
// consumed in completion order, collated by Gather — yields for every job
// exactly what a direct sequential chase.Run yields (CanonicalKey, Stats,
// termination), with errors propagated and results in submission order,
// for all three chase variants at 1 and 4 workers.
func TestSchedulerFleetMatchesSequential(t *testing.T) {
	rcfg := families.RandomConfig{
		Predicates: 3, MaxArity: 3, Rules: 3, MaxHeadAtoms: 2,
		ExistentialProb: 0.4, RepeatProb: 0.3, SideAtoms: 1,
	}
	rng := rand.New(rand.NewSource(331))
	var workloads []families.Workload
	for len(workloads) < 10 {
		s := families.RandomGuarded(rng, rcfg)
		w := families.Workload{Sigma: s, Database: families.RandomDatabase(rng, s, 3, 2)}
		if w.Sigma.Len() == 0 || w.Database.Len() == 0 {
			continue
		}
		workloads = append(workloads, w)
	}
	variants := []chase.Variant{chase.SemiOblivious, chase.Oblivious, chase.Restricted}
	const budget = 400 // truncates the non-terminating workloads mid-run

	for _, v := range variants {
		opts := chase.Options{Variant: v, MaxAtoms: budget}
		want := make([]*chase.Result, len(workloads))
		for i, w := range workloads {
			want[i] = chase.Run(w.Database, w.Sigma, opts)
		}
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%v/w%d", v, workers)
			// The fleet mixes chase jobs with a failing probe so error
			// propagation is checked too.
			s := NewScheduler(SchedulerConfig{Workers: workers, QueueBound: 2})
			var tickets []*Ticket
			submit := func(j Job) {
				tk, err := s.Submit(j) // blocks at the bound: real backpressure
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				tickets = append(tickets, tk)
			}
			for i, w := range workloads {
				submit(ChaseJob(fmt.Sprintf("%v-%d", v, i), w.Database, w.Sigma, opts))
			}
			submit(Job{Name: "probe", Run: func(context.Context) (any, error) {
				return nil, errFleetProbe
			}})
			streamed := Gather(tickets)
			s.Close()

			if len(streamed) != len(workloads)+1 {
				t.Fatalf("%s: %d streamed results, want %d", name, len(streamed), len(workloads)+1)
			}
			if probe := streamed[len(workloads)]; probe.Name != "probe" || !errors.Is(probe.Err, errFleetProbe) {
				t.Fatalf("%s: probe result %+v, want errFleetProbe", name, probe)
			}
			for i, g := range streamed {
				if g.Index != tickets[i].Index() {
					t.Fatalf("%s: result %d collated under index %d, ticket %d",
						name, i, g.Index, tickets[i].Index())
				}
				if i == len(workloads) {
					continue
				}
				if wantName := fmt.Sprintf("%v-%d", v, i); g.Name != wantName || g.Err != nil {
					t.Fatalf("%s: result %d is {%s %v}, want {%s <nil>}", name, i, g.Name, g.Err, wantName)
				}
				wr, gr := want[i], g.Value.(*chase.Result)
				if wr.Terminated != gr.Terminated {
					t.Fatalf("%s: job %s terminated %v (sequential) vs %v (scheduled)",
						name, g.Name, wr.Terminated, gr.Terminated)
				}
				if wr.Stats != gr.Stats {
					t.Fatalf("%s: job %s stats diverge:\nsequential %+v\nscheduled  %+v",
						name, g.Name, wr.Stats, gr.Stats)
				}
				if wk, gk := wr.Instance.CanonicalKey(), gr.Instance.CanonicalKey(); wk != gk {
					t.Fatalf("%s: job %s CanonicalKey diverges (%d vs %d atoms)",
						name, g.Name, wr.Instance.Len(), gr.Instance.Len())
				}
			}
		}
	}
}
