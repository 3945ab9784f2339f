package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/chase"
	"repro/internal/checkpoint"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/families"
	"repro/internal/guarded"
	"repro/internal/logic"
	"repro/internal/parser"
	rt "repro/internal/runtime"
	"repro/internal/service"
	"repro/internal/simplify"
	"repro/internal/tgds"
	"repro/internal/wire"
)

// layerOrder lists the per-layer metrics in the order they are printed.
var layerOrder = []string{
	"fleet.exchange_ms", "fleet.overhead_ms", "fleet.cold_pull_ms", "fleet.cold_pulls",
	"service.submit_chase_ms", "service.submit_decide_ms", "service.submit_resume_ms", "service.envelope_ms",
	"runtime.noop_us", "runtime.queue_wait_ms",
	"wire.encode_request_ms", "wire.decode_request_ms", "wire.encode_result_ms", "wire.decode_result_ms",
	"wire.bytes_per_atom", "wire.scale_ratio",
	"chase.run_ms", "chase.ns_per_atom", "chase.rounds", "chase.triggers_considered", "chase.fired_ratio",
	"chase.round_max_ms", "chase.parallel_ratio", "chase.scale_ratio",
	"logic.add_ns_per_atom", "logic.clone_ms",
	"compile.register_ms", "compile.hit_ratio", "compile.evictions",
	"core.decide_sl_ms", "core.decide_l_ms", "core.decide_g_ms",
	"guarded.linearize_ms", "guarded.types", "guarded.scale_ratio", "simplify.set_ms", "depgraph.build_ms",
	"checkpoint.decode_ms", "checkpoint.apply_delta_ms", "checkpoint.resume_ms", "checkpoint.capture_ms",
	"checkpoint.encode_ms", "checkpoint.bytes_per_atom",
	"parser.parse_ms",
	"trace.overhead_frac", "trace.reconcile_frac",
}

// layerMoves names, for each per-layer metric, the end-to-end metric it
// should move and on which workload.
var layerMoves = map[string]string{
	"fleet.exchange_ms":         "chase_p50_ms, req_per_s @ obda-fleet",
	"fleet.overhead_ms":         "chase_p50_ms, req_per_s @ obda-fleet",
	"fleet.cold_pull_ms":        "setup_s @ obda-fleet",
	"fleet.cold_pulls":          "setup_s @ obda-fleet",
	"service.submit_chase_ms":   "chase_p50_ms @ all",
	"service.submit_decide_ms":  "decide_p50_ms @ guarded-admit",
	"service.submit_resume_ms":  "delta_p50_ms @ tc-delta",
	"service.envelope_ms":       "chase_p50_ms @ all",
	"runtime.noop_us":           "chase_p90_ms, decide_p90_ms, delta_p90_ms @ all",
	"runtime.queue_wait_ms":     "chase_p90_ms, decide_p90_ms, delta_p90_ms @ all",
	"wire.encode_request_ms":    "chase_p50_ms @ obda-fleet; delta_p50_ms @ tc-delta; none @ guarded-admit",
	"wire.decode_request_ms":    "chase_p50_ms @ obda-fleet; delta_p50_ms @ tc-delta; none @ guarded-admit",
	"wire.encode_result_ms":     "chase_p50_ms @ obda-fleet; delta_p50_ms @ tc-delta; none @ guarded-admit",
	"wire.decode_result_ms":     "chase_p50_ms @ obda-fleet; delta_p50_ms @ tc-delta; none @ guarded-admit",
	"wire.bytes_per_atom":       "chase_p50_ms @ obda-fleet; delta_p50_ms @ tc-delta; none @ guarded-admit",
	"wire.scale_ratio":          "chase_p50_ms @ obda-fleet; delta_p50_ms @ tc-delta; none @ guarded-admit",
	"chase.run_ms":              "chase_p50_ms, atoms_per_s @ obda-fleet, guarded-admit",
	"chase.ns_per_atom":         "chase_p50_ms, atoms_per_s @ obda-fleet, guarded-admit",
	"chase.rounds":              "chase_p50_ms, atoms_per_s @ obda-fleet, guarded-admit",
	"chase.triggers_considered": "chase_p50_ms, atoms_per_s @ obda-fleet, guarded-admit",
	"chase.fired_ratio":         "chase_p50_ms, atoms_per_s @ obda-fleet, guarded-admit",
	"chase.round_max_ms":        "chase_p50_ms, atoms_per_s @ obda-fleet, guarded-admit",
	"chase.parallel_ratio":      "chase_p50_ms, atoms_per_s @ obda-fleet, guarded-admit",
	"chase.scale_ratio":         "chase_p50_ms, atoms_per_s @ obda-fleet, guarded-admit",
	"logic.add_ns_per_atom":     "chase_p50_ms @ obda-fleet; delta_p50_ms @ tc-delta",
	"logic.clone_ms":            "chase_p50_ms @ obda-fleet; delta_p50_ms @ tc-delta",
	"compile.register_ms":       "decide_p90_ms @ guarded-admit; setup_s @ obda-fleet, tc-delta",
	"compile.hit_ratio":         "decide_p90_ms @ guarded-admit; setup_s @ obda-fleet, tc-delta",
	"compile.evictions":         "decide_p90_ms @ guarded-admit; setup_s @ obda-fleet, tc-delta",
	"core.decide_sl_ms":         "decide_p50_ms, decide_p90_ms @ guarded-admit",
	"core.decide_l_ms":          "decide_p50_ms, decide_p90_ms @ guarded-admit",
	"core.decide_g_ms":          "decide_p50_ms, decide_p90_ms @ guarded-admit",
	"guarded.linearize_ms":      "decide_p50_ms, decide_p90_ms @ guarded-admit",
	"guarded.types":             "decide_p50_ms, decide_p90_ms @ guarded-admit",
	"guarded.scale_ratio":       "decide_p50_ms, decide_p90_ms @ guarded-admit",
	"simplify.set_ms":           "decide_p50_ms, decide_p90_ms @ guarded-admit",
	"depgraph.build_ms":         "decide_p50_ms, decide_p90_ms @ guarded-admit",
	"checkpoint.decode_ms":      "delta_p50_ms, chase_p50_ms @ tc-delta",
	"checkpoint.apply_delta_ms": "delta_p50_ms, chase_p50_ms @ tc-delta",
	"checkpoint.resume_ms":      "delta_p50_ms, chase_p50_ms @ tc-delta",
	"checkpoint.capture_ms":     "delta_p50_ms, chase_p50_ms @ tc-delta",
	"checkpoint.encode_ms":      "delta_p50_ms, chase_p50_ms @ tc-delta",
	"checkpoint.bytes_per_atom": "delta_p50_ms, chase_p50_ms @ tc-delta",
	"parser.parse_ms":           "setup_s @ all (and the CLI surface)",
	"trace.overhead_frac":       "req_per_s @ this workload (traced vs untraced)",
	"trace.reconcile_frac":      "chase_p50_ms @ obda-fleet (span self times over one request's latency)",
}

// panelResult is the layer panel's metrics and the checks it made on the
// answers of the calls it timed.
type panelResult struct {
	metrics []metric
	checks  int
	failed  int
	errs    []error
}

// panel prices each layer by calling its public functions directly, each
// call inside a span. Its inputs come from the seed: the obda-fleet
// request, the guarded-admit ontology generators, the tc-delta chain.
type panel struct {
	sz  sizes
	tr  *tracer
	res panelResult
}

func (p *panel) put(name, unit string, v float64, n int) {
	p.res.metrics = append(p.res.metrics, metric{Name: name, Unit: unit, Value: v, Samples: n})
}

func (p *panel) check(err error) {
	p.res.checks++
	if err != nil {
		p.res.failed++
		p.res.errs = append(p.res.errs, err)
	}
}

// time runs fn reps times, each under a probe root span with the layer call
// as its child, and returns the durations of the calls in milliseconds.
func (p *panel) time(name string, reps int, fn func()) []float64 {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		req := p.tr.request()
		root := p.tr.start("probe."+name, 0, req)
		out = append(out, ms(p.tr.timed(name, root, req, fn)))
		p.tr.end(root)
	}
	return out
}

func runPanel(sz sizes, seed int64, tr *tracer) (*panelResult, error) {
	p := &panel{sz: sz, tr: tr}
	runtime.GC() // start without the workload's garbage
	steps := []func(int64) error{p.servingPath, p.deciders, p.checkpoints, p.scheduler}
	for _, step := range steps {
		if err := step(seed); err != nil {
			return nil, err
		}
	}
	return &p.res, nil
}

// roundClock records when each chase round ends.
type roundClock struct{ marks []time.Time }

func (c *roundClock) ObserveRound(chase.Stats)      { c.marks = append(c.marks, time.Now()) }
func (c *roundClock) ObserveDone(chase.Stats, bool) {}

// servingPath prices the layers of one obda-fleet request: parse, wire,
// chase, instance store, service envelope and fleet exchange.
func (p *panel) servingPath(seed int64) error {
	reps := p.sz.reps
	sigma, dbs := universityInputs(p.sz.uniScale, 1, seed)
	db := dbs[0]
	_, dbs4 := universityInputs(4*p.sz.uniScale, 1, seed)
	db4 := dbs4[0]

	var text strings.Builder
	if err := parser.FormatDatabase(&text, db); err != nil {
		return err
	}
	var parsed *logic.Instance
	var err error
	parse := p.time("parser.ParseDatabase", reps, func() { parsed, err = parser.ParseDatabase(text.String()) })
	if err == nil && parsed.Len() != db.Len() {
		err = fmt.Errorf("parsed %d atoms, want %d", parsed.Len(), db.Len())
	}
	p.check(err)
	p.put("parser.parse_ms", "ms", median(parse), reps)

	var snap []byte
	encReq := p.time("wire.EncodeSnapshot.request", reps, func() { snap = wire.EncodeSnapshot(db) })
	var decoded *logic.Instance
	decReq := p.time("wire.DecodeSnapshot.request", reps, func() { decoded, err = wire.DecodeSnapshot(snap) })
	if err == nil && orderedKey(decoded) != orderedKey(db) {
		err = fmt.Errorf("decoded request differs from the database")
	}
	p.check(err)
	p.put("wire.encode_request_ms", "ms", median(encReq), reps)
	p.put("wire.decode_request_ms", "ms", median(decReq), reps)

	// The chase, sequential and on a 2-worker executor, at 1× and 4×.
	var res *chase.Result
	var clock roundClock
	var start time.Time
	run := p.time("chase.Run", reps, func() {
		clock.marks = clock.marks[:0]
		start = time.Now()
		res = chase.Run(db, sigma, chase.Options{Observer: &clock})
	})
	ref := refOf(res)
	widest := 0.0
	for i, m := range clock.marks {
		prev := start
		if i > 0 {
			prev = clock.marks[i-1]
		}
		widest = max(widest, ms(m.Sub(prev)))
	}
	exec := rt.NewExecutor(2)
	var par *chase.Result
	parRun := p.time("chase.Run.executor2", reps, func() {
		par = chase.Run(db, sigma, chase.Options{Executor: exec})
	})
	p.check(ref.checkChase(par.Instance, par.Stats, par.Terminated))
	var res4 *chase.Result
	run4 := p.time("chase.Run.4x", max(2, reps/2), func() { res4 = chase.Run(db4, sigma, chase.Options{}) })
	atoms, atoms4 := float64(res.Instance.Len()), float64(res4.Instance.Len())
	nsPerAtom := median(run) * 1e6 / atoms
	st := res.Stats
	p.put("chase.run_ms", "ms", median(run), reps)
	p.put("chase.ns_per_atom", "ns/atom", nsPerAtom, reps)
	p.put("chase.rounds", "count", float64(st.Rounds), 1)
	p.put("chase.triggers_considered", "count", float64(st.TriggersConsidered), 1)
	p.put("chase.fired_ratio", "ratio", float64(st.TriggersFired)/float64(max(st.TriggersConsidered, 1)), 1)
	p.put("chase.round_max_ms", "ms", widest, len(clock.marks))
	p.put("chase.parallel_ratio", "ratio", median(parRun)/median(run), reps)
	p.put("chase.scale_ratio", "ratio", median(run4)*1e6/atoms4/nsPerAtom, len(run4))

	// The result on the wire, at 1× and 4×.
	var out []byte
	encRes := p.time("wire.EncodeSnapshot.result", reps, func() { out = wire.EncodeSnapshot(res.Instance) })
	decRes := p.time("wire.DecodeSnapshot.result", reps, func() { decoded, err = wire.DecodeSnapshot(out) })
	if err == nil && orderedKey(decoded) != ref.key {
		err = fmt.Errorf("decoded result differs from the chase result")
	}
	p.check(err)
	var out4 []byte
	enc4 := p.time("wire.EncodeSnapshot.result4x", max(2, reps/2), func() { out4 = wire.EncodeSnapshot(res4.Instance) })
	dec4 := p.time("wire.DecodeSnapshot.result4x", max(2, reps/2), func() { _, err = wire.DecodeSnapshot(out4) })
	p.check(err)
	p.put("wire.encode_result_ms", "ms", median(encRes), reps)
	p.put("wire.decode_result_ms", "ms", median(decRes), reps)
	p.put("wire.bytes_per_atom", "B/atom", float64(len(out))/atoms, 1)
	p.put("wire.scale_ratio", "ratio",
		(median(enc4)+median(dec4))/atoms4/((median(encRes)+median(decRes))/atoms), len(enc4))

	// The instance store: inserting a result's atoms, cloning it.
	add := p.time("logic.Instance.Add", reps, func() {
		in := logic.NewInstance()
		for _, a := range res.Instance.Atoms() {
			in.Add(a)
		}
	})
	clone := p.time("logic.Instance.Clone", reps, func() { res.Instance.Clone() })
	p.put("logic.add_ns_per_atom", "ns/atom", median(add)*1e6/atoms, reps)
	p.put("logic.clone_ms", "ms", median(clone), reps)

	// The service envelope and the fleet exchange: the same snapshot
	// through a warm 1-worker service and through a 1-server fleet, whose
	// first exchange pulls Σ cold. Each repetition times the wrapped
	// calls next to the wrappers, so the differences share one moment.
	svc := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer svc.Close()
	h, err := svc.RegisterOntology(sigma)
	if err != nil {
		return err
	}
	stack, err := startFleet(1, sigma)
	if err != nil {
		return err
	}
	defer stack.close()
	var jobWall time.Duration // the last submit's job wall-clock
	submit := func() error {
		tk, err := svc.SubmitByFingerprint(bg, h.Fingerprint, service.Payload{Snapshot: snap}, service.ChaseRequest{})
		if err != nil {
			return err
		}
		r := tk.Wait()
		if r.Err != nil {
			return r.Err
		}
		jobWall = r.Wall
		return ref.checkChase(r.Chase.Instance, r.Chase.Stats, r.Chase.Terminated)
	}
	exchange := func() error {
		tk, err := stack.coord.Submit(fleetJob(stack.fp, snap))
		if err != nil {
			return err
		}
		r := tk.Wait()
		if r.Err != nil {
			return r.Err
		}
		return ref.checkChase(r.Instance, r.Stats, r.Terminated)
	}
	p.check(submit()) // warm the service's compile cache
	cold := p.time("fleet.exchange.cold", 1, func() { err = exchange() })
	p.check(err)
	// The envelope is what a submission costs beyond the payload decode
	// and the job itself, whose wall-clock the result carries.
	var sub, warm, envelope, overhead []float64
	for i := 0; i < reps; i++ {
		dec := p.time("wire.DecodeSnapshot.request", 1, func() { _, err = wire.DecodeSnapshot(snap) })[0]
		p.check(err)
		s := p.time("service.SubmitChase", 1, func() { err = submit() })[0]
		p.check(err)
		x := p.time("fleet.exchange", 1, func() { err = exchange() })[0]
		p.check(err)
		sub, warm = append(sub, s), append(warm, x)
		envelope = append(envelope, s-dec-ms(jobWall))
		overhead = append(overhead, x-s)
	}
	p.put("service.submit_chase_ms", "ms", median(sub), reps)
	p.put("service.envelope_ms", "ms", median(envelope), reps)
	p.put("fleet.exchange_ms", "ms", median(warm), reps)
	p.put("fleet.overhead_ms", "ms", median(overhead), reps)
	p.put("fleet.cold_pull_ms", "ms", cold[0]-median(warm), 1)
	p.put("fleet.cold_pulls", "count", float64(stack.coord.ColdPulls()), 1)
	return nil
}

// deciders prices the termination deciders on the guarded-admit
// generators, class by class, and the guarded decider's stages.
func (p *panel) deciders(seed int64) error {
	perClass := max(2, p.sz.reps)
	pool := admitPool(p.sz, 12*perClass, seed)
	byClass := map[tgds.Class][]admitEntry{}
	for _, e := range pool {
		if len(byClass[e.class]) < perClass {
			byClass[e.class] = append(byClass[e.class], e)
		}
	}
	names := map[tgds.Class]string{tgds.ClassSL: "core.decide_sl_ms", tgds.ClassL: "core.decide_l_ms", tgds.ClassG: "core.decide_g_ms"}
	for class, name := range names {
		var times []float64
		for _, e := range byClass[class] {
			var err error
			times = append(times, p.time("core.Decide."+class.String(), 1, func() { _, err = core.Decide(e.db, e.sigma) })...)
			p.check(err)
		}
		p.put(name, "ms", median(times), len(times))
	}

	// The guarded decider's stages, and its per-atom cost at 4× |D|.
	var lin, simp, build, types, ratios []float64
	drng := rand.New(rand.NewSource(seed))
	small := max(p.sz.admitFacts/4, 20)
	for _, e := range byClass[tgds.ClassG] {
		var (
			l      *guarded.Linearizer
			linSig *tgds.Set
			gsSig  *tgds.Set
			err    error
		)
		lin = append(lin, p.time("guarded.Linearize", 1, func() {
			if l, err = guarded.NewLinearizer(e.sigma); err == nil {
				_, linSig, err = l.Linearize(e.db)
			}
		})...)
		p.check(err)
		if err != nil {
			continue
		}
		types = append(types, float64(l.TypeCount()))
		simp = append(simp, p.time("simplify.Set", 1, func() { gsSig, err = simplify.Set(linSig) })...)
		p.check(err)
		if err != nil {
			continue
		}
		build = append(build, p.time("depgraph.Build", 1, func() { depgraph.Build(gsSig) })...)

		perAtom := func(n int) float64 {
			db := families.RandomDatabase(drng, e.sigma, n, 200)
			var err error
			d := p.time("guarded.Linearize.scale", 1, func() {
				var l *guarded.Linearizer
				if l, err = guarded.NewLinearizer(e.sigma); err == nil {
					_, _, err = l.Linearize(db)
				}
			})
			p.check(err)
			return d[0] / float64(db.Len())
		}
		ratios = append(ratios, perAtom(4*small)/perAtom(small))
	}
	p.put("guarded.linearize_ms", "ms", median(lin), len(lin))
	p.put("guarded.types", "count", median(types), len(types))
	p.put("guarded.scale_ratio", "ratio", median(ratios), len(ratios))
	p.put("simplify.set_ms", "ms", median(simp), len(simp))
	p.put("depgraph.build_ms", "ms", median(build), len(build))

	// Cold registration: what a compile-cache miss costs a request.
	var reg []float64
	for _, e := range pool[:min(len(pool), 3*perClass)] {
		cache := compile.NewCache(0)
		reg = append(reg, p.time("compile.Register.cold", 1, func() {
			cache.Register(e.sigma)
			cache.CompiledChase(e.sigma)
		})...)
	}
	p.put("compile.register_ms", "ms", median(reg), len(reg))

	// A decision through the service envelope.
	svc := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer svc.Close()
	var sub []float64
	for _, e := range pool[:min(len(pool), 3*perClass)] {
		want, err := core.Decide(e.db, e.sigma)
		if err != nil {
			return err
		}
		sub = append(sub, p.time("service.SubmitDecide", 1, func() {
			var tk *service.Ticket
			if tk, err = svc.SubmitDecide(bg, service.DecideRequest{Database: service.Payload{Instance: e.db},
				Ontology: service.OntologyRef{Set: e.sigma}, Method: "syntactic"}); err == nil {
				if r := tk.Wait(); r.Err != nil {
					err = r.Err
				} else if r.Verdict.Outcome != want.Outcome {
					err = fmt.Errorf("service verdict %v, direct %v", r.Verdict.Outcome, want.Outcome)
				}
			}
		})...)
		p.check(err)
	}
	p.put("service.submit_decide_ms", "ms", median(sub), len(sub))
	return nil
}

// checkpoints prices the checkpoint artifact's life cycle on the first
// tc-delta chain: capture and encode after a full chase, then decode,
// apply a delta blob and resume, as SubmitDelta does.
func (p *panel) checkpoints(seed int64) error {
	reps := p.sz.reps
	sigma := parser.MustParseRules(tcProgram)
	bases, deltas := tcInputs(sizes{tcNodes: p.sz.tcNodes, tcEpochs: 1, tcEdges: p.sz.tcEdges}, seed)
	base := bases[0]
	res := chase.Run(base, sigma, chase.Options{Checkpoint: true})
	grown := res.Instance.Clone()
	grown.AddAll(deltas[0][0])
	blob := wire.EncodeDelta(grown, res.Instance.Len())
	full := base.Clone()
	full.AddAll(deltas[0][0])
	want := chase.Run(full, sigma, chase.Options{})

	var cp *checkpoint.Checkpoint
	var err error
	capture := p.time("checkpoint.Capture", reps, func() { cp, err = checkpoint.Capture(sigma, res) })
	if err != nil {
		return err
	}
	var data []byte
	encode := p.time("checkpoint.Encode", reps, func() { data, err = cp.Encode() })
	if err != nil {
		return err
	}
	var decode, apply, resume []float64
	for i := 0; i < reps; i++ {
		var dec *checkpoint.Checkpoint
		decode = append(decode, p.time("checkpoint.Decode", 1, func() { dec, err = checkpoint.Decode(data) })...)
		if err != nil {
			return err
		}
		apply = append(apply, p.time("checkpoint.ApplyDelta", 1, func() { _, err = dec.ApplyDelta(blob) })...)
		if err != nil {
			return err
		}
		var got *chase.Result
		resume = append(resume, p.time("checkpoint.Resume", 1, func() {
			got, err = dec.Resume(sigma, nil, chase.Options{Checkpoint: true})
		})...)
		if err == nil && (got.Instance.Len() != want.Instance.Len() || nullBlindKey(got.Instance) != nullBlindKey(want.Instance)) {
			err = fmt.Errorf("resume differs from the full re-chase")
		}
		p.check(err)
	}
	p.put("checkpoint.capture_ms", "ms", median(capture), reps)
	p.put("checkpoint.encode_ms", "ms", median(encode), reps)
	p.put("checkpoint.bytes_per_atom", "B/atom", float64(len(data))/float64(res.Instance.Len()), 1)
	p.put("checkpoint.decode_ms", "ms", median(decode), reps)
	p.put("checkpoint.apply_delta_ms", "ms", median(apply), reps)
	p.put("checkpoint.resume_ms", "ms", median(resume), reps)

	// The same resume through the service envelope.
	svc := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer svc.Close()
	if _, err := svc.RegisterOntology(sigma); err != nil {
		return err
	}
	sub := p.time("service.SubmitDelta", reps, func() {
		var tk *service.Ticket
		if tk, err = svc.SubmitDelta(bg, service.DeltaRequest{Checkpoint: data, Deltas: [][]byte{blob}}); err == nil {
			if r := tk.Wait(); r.Err != nil {
				err = r.Err
			} else if nullBlindKey(r.Chase.Instance) != nullBlindKey(want.Instance) {
				err = fmt.Errorf("service resume differs from the full re-chase")
			}
		}
	})
	p.check(err)
	p.put("service.submit_resume_ms", "ms", median(sub), reps)
	return nil
}

// scheduler prices pure scheduling: a no-op job through a fresh
// scheduler, from admission to done.
func (p *panel) scheduler(int64) error {
	s := rt.NewScheduler(rt.SchedulerConfig{Workers: 1})
	defer s.Close()
	n := 50 * p.sz.reps
	var err error
	times := p.time("runtime.Scheduler.noop", n, func() {
		var tk *rt.Ticket
		if tk, err = s.Submit(rt.Job{Name: "noop", Run: func(context.Context) (any, error) { return nil, nil }}); err == nil {
			err = tk.Wait().Err
		}
	})
	p.check(err)
	p.put("runtime.noop_us", "us", median(times)*1000, n)
	return nil
}
