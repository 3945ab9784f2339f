// Package runtime is the concurrency layer of the reproduction. The
// paper's non-uniform setting makes chase termination and size a
// per-database question, so a serving deployment faces two independent
// axes of parallelism, and this package provides one component per axis:
//
//   - Executor, a fixed-size worker pool satisfying chase.Executor, shards
//     one run's trigger collection across cores. Each semi-naive round's
//     (TGD, seed atom, delta window) task space is matched concurrently
//     against the frozen instance and merged back in deterministic order,
//     so a parallel run is byte-identical — CanonicalKey, stats, forest,
//     derivation — to the sequential engine for all three chase variants
//     (see internal/chase/parallel.go for the contract and the
//     determinism property test in this package for the evidence).
//
//   - Scheduler, the streaming multi-job runtime, serves fleets of
//     independent chase and decision jobs — one per (D, Σ) request,
//     experiment point, or probe — from a long-lived worker set behind a
//     bounded admission queue. SubmitIn is the one admission path and is
//     safe from any goroutine; the queue bound exerts backpressure (Block
//     waits for a slot, Reject fails fast with ErrQueueFull); every job
//     carries a wall-clock budget and cancellation; results stream back
//     over per-ticket channels as jobs finish. ChaseJob and ResumeJob
//     build engine jobs, whose atom and round budgets ride in their
//     chase.Options and whose tickets additionally stream round-level
//     progress (latest-wins, fed by the job's chase.Observer chain).
//     Drain and Close shut fleets down gracefully; Gather collates a
//     fleet's streamed results back into submission order.
//
// The two compose: a Scheduler job may itself carry an Executor, trading
// intra-run against cross-job parallelism.
package runtime

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
)

// Executor is a fixed-size worker pool for data-parallel loops. It
// satisfies chase.Executor; the zero value is not usable, construct with
// NewExecutor.
type Executor struct {
	workers int
}

// NewExecutor returns an executor with the given number of worker slots;
// workers <= 0 selects runtime.GOMAXPROCS(0).
func NewExecutor(workers int) *Executor {
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	return &Executor{workers: workers}
}

// Workers returns the number of worker slots. A nil receiver reports one
// worker, so a nil *Executor stored in a chase.Executor interface degrades
// to the sequential path instead of panicking.
func (e *Executor) Workers() int {
	if e == nil {
		return 1
	}
	return e.workers
}

// Map invokes task(i, w) exactly once for every i in [0, n), from at most
// Workers() concurrent goroutines; w identifies the calling worker slot in
// [0, Workers()), so callers can maintain worker-local state free of
// synchronization. Tasks are claimed dynamically (an atomic cursor), which
// balances uneven task costs. Map returns once every task has completed;
// a panicking task is re-panicked on the calling goroutine after the
// remaining workers drain.
func (e *Executor) Map(n int, task func(i, w int)) {
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i, 0)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	panics := make([]any, workers)
	wg.Add(workers)
	for slot := 0; slot < workers; slot++ {
		go func(slot int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[slot] = r
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i, slot)
			}
		}(slot)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
