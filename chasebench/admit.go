package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/logic"
	"repro/internal/service"
	"repro/internal/tgds"
)

// admitSigmaSeed seeds the ontology pool of guarded-admit. The pool is
// part of the workload's definition; -seed draws the databases and so
// every request. Drawing the ontologies from -seed too makes the pool's
// class and cost mix, and with it every latency percentile, swing by a
// fifth from seed to seed (README.md).
const admitSigmaSeed = 2022

// guardedAdmit is the paper's own flow, decide then chase, on an
// in-process 2-worker service: each request takes one ontology of a pool
// of random SL, L and guarded sets (more of them than the compile cache
// holds) with a random database.
type guardedAdmit struct {
	sz   sizes
	seed int64

	pool []admitEntry
	svc  *service.Service
	next partition
}

type admitEntry struct {
	sigma  *tgds.Set
	class  tgds.Class
	db     *logic.Instance
	finite bool
	ref    chaseRef
}

func newGuardedAdmit(sz sizes, seed int64) workload { return &guardedAdmit{sz: sz, seed: seed} }

// admitPool draws n (Σ, D) entries, cycling through the simple linear,
// linear and guarded generators with the default random configuration.
func admitPool(sz sizes, n int, seed int64) []admitEntry {
	srng := rand.New(rand.NewSource(admitSigmaSeed))
	drng := rand.New(rand.NewSource(seed))
	cfg := families.DefaultRandomConfig()
	pool := make([]admitEntry, n)
	for i := range pool {
		var sigma *tgds.Set
		switch i % 3 {
		case 0:
			sigma = families.RandomSimpleLinear(srng, cfg)
		case 1:
			sigma = families.RandomLinear(srng, cfg)
		default:
			sigma = families.RandomGuarded(srng, cfg)
		}
		facts := sz.admitFacts + drng.Intn(sz.admitSpan+1)
		pool[i] = admitEntry{sigma: sigma, class: sigma.Classify(), db: families.RandomDatabase(drng, sigma, facts, 200)}
	}
	return pool
}

func (w *guardedAdmit) setup() error {
	w.pool = admitPool(w.sz, w.sz.admitPool, w.seed)
	errs := make([]error, len(w.pool))
	parallel(len(w.pool), func(i int) {
		e := &w.pool[i]
		v, err := core.Decide(e.db, e.sigma)
		if err != nil {
			errs[i] = err
			return
		}
		e.finite = v.Outcome == core.Finite
		res := chase.Run(e.db, e.sigma, chase.Options{MaxRounds: w.roundBudget(e.finite)})
		e.ref = refOf(res)
		if res.Terminated != e.finite {
			errs[i] = fmt.Errorf("entry %d: verdict %v but the reference chase terminated=%v", i, v.Outcome, res.Terminated)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	w.svc = service.New(service.Config{Workers: 2, Cache: compile.NewCache(0)})
	for c := 0; c < clients; c++ {
		for _, r := range w.request(c, nil) {
			if r.err != nil {
				return fmt.Errorf("warm-up: %w", r.err)
			}
		}
	}
	return nil
}

// roundBudget is the chase's round budget after a verdict: none after a
// finite one, a fixed number after an infinite one.
func (w *guardedAdmit) roundBudget(finite bool) int {
	if finite {
		return 0
	}
	return w.sz.admitRounds
}

func (w *guardedAdmit) request(c int, tr *tracer) []opResult {
	e := &w.pool[w.next.next(c, len(w.pool))]
	onto := service.OntologyRef{Set: e.sigma}
	payload := service.Payload{Instance: e.db}

	req := tr.request()
	dec := serveThen(tr, req, opDecide, func() (*service.Ticket, error) {
		return w.svc.SubmitDecide(bg, service.DecideRequest{Database: payload, Ontology: onto, Method: "syntactic"})
	}, nil)
	if dec.err == nil {
		if got := dec.res.Verdict.Outcome == core.Finite; got != e.finite {
			dec.err = fmt.Errorf("verdict finite=%v, reference %v", got, e.finite)
		}
	}
	if dec.err != nil {
		return []opResult{dec.opResult}
	}
	ch := serveThen(tr, req, opChase, func() (*service.Ticket, error) {
		return w.svc.SubmitChase(bg, service.ChaseRequest{Database: payload, Ontology: onto,
			Variant: chase.SemiOblivious, MaxRounds: w.roundBudget(e.finite)})
	}, nil)
	if ch.err == nil {
		ch.atoms = ch.res.Chase.Instance.Len()
		ch.err = e.ref.checkChase(ch.res.Chase.Instance, ch.res.Chase.Stats, ch.res.Chase.Terminated)
	}
	return []opResult{dec.opResult, ch.opResult}
}

// served is one service operation with its result.
type served struct {
	opResult
	res service.Result
}

// serveThen times one service operation under a root span named after op:
// from the Submit call to the return of Wait and, when then is non-nil, of
// then, which finishes the reply on the waited ticket. The wait estimate
// is the time from the return of Submit (the job is admitted) to the
// return of Wait, minus the job's own wall-clock, which the scheduler
// starts when a worker claims the job.
func serveThen(tr *tracer, req int64, op string, submit func() (*service.Ticket, error),
	then func(tk *service.Ticket, parent int64) error) served {
	root := tr.start("request."+op, 0, req)
	start := time.Now()
	var tk *service.Ticket
	var err error
	tr.timed("service.submit", root, req, func() { tk, err = submit() })
	admitted := time.Now()
	out := served{opResult: opResult{op: op, root: root, wait: -1}}
	if err == nil {
		tr.timed("service.wait", root, req, func() { out.res = tk.Wait() })
		err = out.res.Err
		if err == nil {
			out.wait = time.Since(admitted) - out.res.Wall
			if then != nil {
				err = then(tk, root)
			}
		}
	}
	out.lat = time.Since(start)
	tr.end(root)
	out.err = err
	return out
}

func (w *guardedAdmit) counters() stackCounters { return stackCounters{cache: w.svc.Cache().Stats()} }

func (w *guardedAdmit) close() {
	if w.svc != nil {
		w.svc.Close()
	}
}
