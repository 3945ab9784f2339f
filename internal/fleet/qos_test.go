package fleet

import (
	"bufio"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/wire"
)

// TestFleetBoundsColdPull: learned bounds ship to cold workers with the
// ontology pull — a bound profiled on the coordinator's side serves a
// bounded-mode job on a worker that never ran a reference chase, and a
// prefix bound's truncation is attributed to the learned bound across
// the wire.
func TestFleetBoundsColdPull(t *testing.T) {
	prog, err := parser.Parse("p(a). p(X) -> ∃Y q(X, Y). q(X, Y) -> r(Y).")
	if err != nil {
		t.Fatal(err)
	}
	inf, err := parser.Parse("e(a, b). e(X, Y) -> ∃Z e(Y, Z).")
	if err != nil {
		t.Fatal(err)
	}
	local := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer local.Close()
	ctx := context.Background()

	// Profile both ontologies on the coordinator's side: the terminating
	// program to an observed bound, the infinite one to a prefix bound.
	learn := func(prog *parser.Program, maxAtoms int) compile.Fingerprint {
		t.Helper()
		h, err := local.RegisterOntology(prog.Rules)
		if err != nil {
			t.Fatal(err)
		}
		tk, err := local.SubmitChase(ctx, service.ChaseRequest{
			Meta:     service.RequestMeta{QoS: qos.Policy{Learn: true}},
			Database: service.Payload{Instance: prog.Database},
			Ontology: service.ByFingerprint(h.Fingerprint),
			MaxAtoms: maxAtoms,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r := tk.Wait(); r.Err != nil {
			t.Fatal(r.Err)
		}
		if len(local.Bounds(h.Fingerprint)) == 0 {
			t.Fatal("learn run stored no bound")
		}
		return h.Fingerprint
	}
	fp := learn(prog, 0)
	fpInf := learn(inf, 50)

	// One cold worker: its service has an empty cache, so the only way a
	// bounded job can serve is the bound arriving with the cold pull.
	coord, err := NewCoordinator(Config{Workers: startWorkers(t, 1, 1), Source: local})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	tk, err := coord.Submit(Job{
		Name:        "bounded-cold",
		Fingerprint: fp,
		Snapshot:    wire.EncodeSnapshot(prog.Database),
		Meta:        service.RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Err != nil {
		t.Fatalf("bounded job on a cold worker: %v", res.Err)
	}
	if !res.Terminated {
		t.Fatal("bounded job under an observed bound must terminate")
	}
	if coord.ColdPulls() != 1 {
		t.Fatalf("cold pulls = %d, want 1", coord.ColdPulls())
	}

	// The prefix bound ships too, and the worker's truncation marker
	// source survives the result frame.
	tk, err = coord.Submit(Job{
		Name:        "bounded-prefix",
		Fingerprint: fpInf,
		Snapshot:    wire.EncodeSnapshot(inf.Database),
		Budget:      qos.Budget{Atoms: 100000},
		Meta:        service.RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res = tk.Wait()
	if res.Err != nil || res.Terminated {
		t.Fatalf("bounded job under a prefix bound: %+v", res)
	}
	if res.Source != qos.SourceLearnedBound {
		t.Fatalf("truncation source across the wire = %v, want learned-bound", res.Source)
	}

	// A bounded job for an ontology with no learned bound still fails
	// typed: the cold pull shipped the ontology but had no bound to ship.
	unprofiled, err := parser.Parse("a(c). a(X) -> b(X).")
	if err != nil {
		t.Fatal(err)
	}
	hU, err := local.RegisterOntology(unprofiled.Rules)
	if err != nil {
		t.Fatal(err)
	}
	tk, err = coord.Submit(Job{
		Name:        "bounded-unprofiled",
		Fingerprint: hU.Fingerprint,
		Snapshot:    wire.EncodeSnapshot(unprofiled.Database),
		Meta:        service.RequestMeta{QoS: qos.Policy{Mode: qos.Bounded}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res = tk.Wait()
	if !errors.Is(res.Err, qos.ErrNoLearnedBound) {
		t.Fatalf("unprofiled bounded job err = %v, want ErrNoLearnedBound across the wire", res.Err)
	}
}

// TestFleetAnytimeEquivalence: the anytime tier's fleet contract — at a
// fixed round quota, a 2-worker coordinator fleet of cold workers
// returns byte-identical results (instance, stats, termination, budget
// source) to the in-process service, for every examples/dlgp scenario ×
// all three chase variants.
func TestFleetAnytimeEquivalence(t *testing.T) {
	progs := scenarios(t)
	variants := []chase.Variant{chase.SemiOblivious, chase.Oblivious, chase.Restricted}
	policy := qos.Policy{Mode: qos.Anytime, Rounds: 3}

	local := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer local.Close()
	coord, err := NewCoordinator(Config{Workers: startWorkers(t, 2, 1), Source: local})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	type pair struct {
		name   string
		local  *service.Ticket
		remote *Ticket
	}
	var pairs []pair
	for name, prog := range progs {
		h, err := local.RegisterOntology(prog.Rules)
		if err != nil {
			t.Fatal(err)
		}
		snapshot := wire.EncodeSnapshot(prog.Database)
		for _, v := range variants {
			jobName := name + "/" + v.String()
			lt, err := local.SubmitByFingerprint(context.Background(), h.Fingerprint,
				service.Payload{Snapshot: snapshot}, service.ChaseRequest{
					Name:     jobName,
					Meta:     service.RequestMeta{QoS: policy},
					Variant:  v,
					MaxAtoms: 300,
				})
			if err != nil {
				t.Fatal(err)
			}
			rt, err := coord.Submit(Job{
				Name:        jobName,
				Meta:        service.RequestMeta{Tenant: name, QoS: policy},
				Fingerprint: h.Fingerprint,
				Variant:     v,
				Snapshot:    snapshot,
				Budget:      qos.Budget{Atoms: 300},
			})
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, pair{name: jobName, local: lt, remote: rt})
		}
	}
	for _, p := range pairs {
		lr, rr := p.local.Wait(), p.remote.Wait()
		if lr.Err != nil || rr.Err != nil {
			t.Fatalf("%s: errs %v / %v", p.name, lr.Err, rr.Err)
		}
		if lr.Chase.Terminated != rr.Terminated {
			t.Fatalf("%s: Terminated %v vs %v", p.name, lr.Chase.Terminated, rr.Terminated)
		}
		if lr.BudgetSource != rr.Source {
			t.Fatalf("%s: budget source %v vs %v", p.name, lr.BudgetSource, rr.Source)
		}
		ls, rs := lr.Stats(), rr.Stats
		ls.CompileHits, ls.CompileMisses = 0, 0
		rs.CompileHits, rs.CompileMisses = 0, 0
		if ls != rs {
			t.Fatalf("%s: stats %+v vs %+v", p.name, ls, rs)
		}
		if lr.Chase.Instance.CanonicalKey() != rr.Instance.CanonicalKey() {
			t.Fatalf("%s: anytime fleet prefix diverges from in-process", p.name)
		}
	}
}

// TestServerCorruptBoundsRegister: a register frame whose bounds blob is
// not a canonical encoding rejects the whole registration as a typed
// bad-request — the ontology is not half-registered — and the connection
// stays usable.
func TestServerCorruptBoundsRegister(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer svc.Close()
	srv := NewServer(svc)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	rules := "p(X) -> q(X)."
	if err := writeFrame(conn, kindRegister, encodeRegister(registerMsg{
		Rules:  rules,
		Bounds: []byte{0x01, 0x07, 0x02, 0x07, 0x01}, // unknown variant 7
	})); err != nil {
		t.Fatal(err)
	}
	kind, body, err := readFrame(r)
	if err != nil || kind != kindError {
		t.Fatalf("corrupt bounds answer: (%c, %v), want error frame", kind, err)
	}
	m, err := decodeError(body)
	if err != nil || m.Code != service.KindBadRequest.String() {
		t.Fatalf("corrupt bounds error %+v, want bad-request", m)
	}
	sigma := parser.MustParseRules(rules)
	if _, err := svc.Ontology(compile.Of(sigma)); err == nil {
		t.Fatal("a rejected register still registered the ontology")
	}

	// The same registration with a canonical blob succeeds on the same
	// connection, and the shipped bound is immediately servable.
	blob := qos.EncodeBounds([]compile.VariantBound{
		{Variant: chase.SemiOblivious, Bound: compile.LearnedBound{Rounds: 2, Atoms: 2, Observed: true}},
	})
	if err := writeFrame(conn, kindRegister, encodeRegister(registerMsg{Rules: rules, Bounds: blob})); err != nil {
		t.Fatal(err)
	}
	kind, body, err = readFrame(r)
	if err != nil || kind != kindRegistered {
		t.Fatalf("canonical register: (%c, %v)", kind, err)
	}
	ack, err := decodeRegistered(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Bounds(ack.Fingerprint); len(got) != 1 || got[0].Bound.Rounds != 2 {
		t.Fatalf("shipped bound after register: %+v", got)
	}
}

// TestFleetWallBudget: a job's wall budget crosses the Submit frame. A
// chase of a diverging (D, Σ) under a 50ms wall and no atom or round cap
// stops on the worker unterminated, with the explicit flag as its budget
// source — exactly as the in-process submission of the same request
// does.
func TestFleetWallBudget(t *testing.T) {
	prog := scenarios(t)["infinite"]
	local := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer local.Close()
	h, err := local.RegisterOntology(prog.Rules)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Config{Workers: startWorkers(t, 1, 1), Source: local})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	snapshot := wire.EncodeSnapshot(prog.Database)
	req := service.ChaseRequest{Name: "walled", Wall: 50 * time.Millisecond}
	lt, err := local.SubmitByFingerprint(context.Background(), h.Fingerprint, service.Payload{Snapshot: snapshot}, req)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := coord.Submit(Job{
		Name:        req.Name,
		Fingerprint: h.Fingerprint,
		Snapshot:    snapshot,
		Budget:      req.Budget(),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Result, 1)
	go func() { done <- rt.Wait() }()
	var rr Result
	select {
	case rr = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the fleet job ignored its wall budget")
	}
	if rr.Err != nil || rr.Terminated || rr.Source != qos.SourceFlag {
		t.Fatalf("fleet run under a wall budget: err %v, terminated %v, source %v; want an unterminated flag-budget stop",
			rr.Err, rr.Terminated, rr.Source)
	}
	lr := lt.Wait()
	if lr.Err != nil {
		t.Fatal(lr.Err)
	}
	if lr.Chase.Terminated != rr.Terminated || lr.BudgetSource != rr.Source {
		t.Fatalf("in-process terminated %v source %v; fleet terminated %v source %v",
			lr.Chase.Terminated, lr.BudgetSource, rr.Terminated, rr.Source)
	}
}
