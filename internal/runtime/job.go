package runtime

import (
	"context"
	"time"

	"repro/internal/chase"
	"repro/internal/checkpoint"
	"repro/internal/logic"
	"repro/internal/tgds"
)

// Job is one unit of scheduled work. Run receives a context that is
// cancelled when the job's wall-clock budget expires, the ticket is
// cancelled, or the submission context ends; jobs are expected to return
// promptly once the context is done.
type Job struct {
	Name string
	// Meta is the job's admission metadata: the scheduler dequeues
	// strictly by priority lane and round-robin across tenants within a
	// lane. The zero value (anonymous tenant, normal priority) keeps the
	// whole queue one FIFO.
	Meta JobMeta
	Wall time.Duration // wall-clock budget; 0 = none
	// Run is an opaque job's body. ChaseJob and ResumeJob leave it nil:
	// their run lives in engine, and only a Scheduler executes them.
	Run func(ctx context.Context) (any, error)

	// engine marks a job built by ChaseJob or ResumeJob. The scheduler
	// wires the ticket's progress stream and metering observer into its
	// options, polls the job's context through chase.Options.Interrupt,
	// and lends it the worker's pooled chase.Scratch. A Job literal
	// leaves it zero.
	engine engineRun
}

// engineRun is the engine half of a ChaseJob or ResumeJob: the options
// the run starts from, the run itself over those options, and the name of
// its terminal trace span ("chase" or "resume").
type engineRun struct {
	kind string
	opts chase.Options
	run  func(chase.Options) (any, error)
}

// exec runs the engine with Interrupt polling ctx and, unless the options
// already carry one, sc as the run's scratch. Scratch reuse is
// byte-identical to a fresh run.
func (e engineRun) exec(ctx context.Context, sc *chase.Scratch) (any, error) {
	o := e.opts
	o.Interrupt = interrupter(ctx)
	if o.Scratch == nil {
		o.Scratch = sc
	}
	return e.run(o)
}

// JobResult is one job's outcome.
type JobResult struct {
	Name     string
	Index    int
	Value    any
	Err      error
	Wall     time.Duration // the job's own wall-clock
	TimedOut bool          // the job's wall budget expired
	// Canceled reports that preemption — the ticket's Cancel or the end
	// of its submission context — skipped the job before it started, or
	// that the job surfaced the preemption as its error. A job that
	// absorbs it and still returns a value counts as succeeded — chase
	// jobs report truncation through Result.Terminated, not here.
	Canceled bool
}

// interrupter adapts a context to chase.Options.Interrupt: it reports
// true once the context is done.
func interrupter(ctx context.Context) func() bool {
	return func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
}

// ChaseJob builds a Job that chases db with sigma under opts: atom and
// round caps, executor, and compiler all come from opts, the wall-clock
// budget from the returned Job's Wall (enforced through the job's context
// and chase.Options.Interrupt). The job's value is the *chase.Result; a
// run that exhausted any budget comes back with Terminated == false,
// never as an error.
func ChaseJob(name string, db *logic.Instance, sigma *tgds.Set, opts chase.Options) Job {
	return Job{Name: name, engine: engineRun{kind: "chase", opts: opts, run: func(o chase.Options) (any, error) {
		return chase.Run(db, sigma, o), nil
	}}}
}

// ResumeJob builds a Job that continues a checkpointed chase over a
// base-data delta (checkpoint.Checkpoint.Resume). Budgets, executor,
// wall-clock interruption, and worker-scratch reuse behave exactly as in
// ChaseJob — the resumed run is the same engine. The job's value is the
// *chase.Result; unlike a chase job, a resume can fail before the engine
// starts (ontology mismatch), which surfaces as the job's error.
func ResumeJob(name string, cp *checkpoint.Checkpoint, sigma *tgds.Set, delta []*logic.Atom, opts chase.Options) Job {
	return Job{Name: name, engine: engineRun{kind: "resume", opts: opts, run: func(o chase.Options) (any, error) {
		res, err := cp.Resume(sigma, delta, o)
		if err != nil {
			return nil, err
		}
		return res, nil
	}}}
}
