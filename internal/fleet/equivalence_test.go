package fleet

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/wire"
)

// scenarios loads every example program under examples/dlgp.
func scenarios(t *testing.T) map[string]*parser.Program {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "dlgp")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*parser.Program)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".dlgp") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out[strings.TrimSuffix(e.Name(), ".dlgp")] = prog
	}
	if len(out) == 0 {
		t.Fatal("no example scenarios found")
	}
	return out
}

// startWorkers boots n cold workers (each its own service over its own
// empty compile cache, exactly the cmd/chased shape) on loopback TCP
// and returns their addresses.
func startWorkers(t *testing.T, n, svcWorkers int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{Workers: svcWorkers, Cache: compile.NewCache(0)})
		t.Cleanup(svc.Close)
		srv := NewServer(svc)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := srv.Serve(lis); err != nil {
				t.Errorf("worker serve: %v", err)
			}
		}()
		t.Cleanup(func() { srv.Close(); <-done })
		addrs[i] = lis.Addr().String()
	}
	return addrs
}

// TestCoordinatorFleetEquivalence is the tentpole acceptance property:
// a coordinator-run fleet over cold chased-style workers is
// byte-identical — CanonicalKey, termination, statistics (modulo the
// compile-fetch counters, which describe per-process cache behavior),
// and the full recorded derivation — to the in-process
// SubmitByFingerprint fleet, for every examples/dlgp scenario × all
// three chase variants, at fleet sizes 1 and 2 and intra-run workers 1
// and 4. The workers start with empty registries, so every ontology
// crosses the wire through the cold-pull handshake.
func TestCoordinatorFleetEquivalence(t *testing.T) {
	progs := scenarios(t)
	variants := []chase.Variant{chase.SemiOblivious, chase.Oblivious, chase.Restricted}
	for _, fleetSize := range []int{1, 2} {
		for _, workers := range []int{1, 4} {
			// The in-process reference fleet, and the coordinator's
			// ontology source (its registry is what cold workers pull).
			local := service.New(service.Config{Workers: workers, Cache: compile.NewCache(0)})
			defer local.Close()

			coord, err := NewCoordinator(Config{
				Workers: startWorkers(t, fleetSize, workers),
				Source:  local,
			})
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
							Name:             jobName,
							Variant:          v,
							MaxAtoms:         300,
							Workers:          workers,
							RecordDerivation: true,
						})
					if err != nil {
						t.Fatal(err)
					}
					rt, err := coord.Submit(Job{
						Name:             jobName,
						Meta:             service.RequestMeta{Tenant: name}, // spread tenants over the fleet
						Fingerprint:      h.Fingerprint,
						Variant:          v,
						Snapshot:         snapshot,
						Budget:           qos.Budget{Atoms: 300},
						Workers:          workers,
						RecordDerivation: true,
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
					t.Fatalf("fleet=%d workers=%d %s: errs %v / %v", fleetSize, workers, p.name, lr.Err, rr.Err)
				}
				if lr.Chase.Terminated != rr.Terminated {
					t.Fatalf("fleet=%d workers=%d %s: Terminated %v vs %v", fleetSize, workers, p.name, lr.Chase.Terminated, rr.Terminated)
				}
				ls, rs := lr.Stats(), rr.Stats
				ls.CompileHits, ls.CompileMisses = 0, 0
				rs.CompileHits, rs.CompileMisses = 0, 0
				if ls != rs {
					t.Fatalf("fleet=%d workers=%d %s: stats %+v vs %+v", fleetSize, workers, p.name, ls, rs)
				}
				if lk, rk := lr.Chase.Instance.CanonicalKey(), rr.Instance.CanonicalKey(); lk != rk {
					t.Fatalf("fleet=%d workers=%d %s: coordinator fleet diverges from in-process fleet", fleetSize, workers, p.name)
				}
				if ld, rd := RenderDerivation(lr.Chase.Derivation), rr.Derivation; ld != rd {
					t.Fatalf("fleet=%d workers=%d %s: derivations diverge:\nlocal:\n%s\nremote:\n%s", fleetSize, workers, p.name, ld, rd)
				}
			}
			// Every worker started empty: each must have pulled every
			// ontology it chased exactly through the handshake.
			if got := coord.ColdPulls(); got == 0 || got > fleetSize*len(progs) {
				t.Fatalf("fleet=%d: %d cold pulls, want in [1, %d]", fleetSize, got, fleetSize*len(progs))
			}
			coord.Close()
			local.Close()
		}
	}
}

// TestCoordinatorProgressAndPlacement: progress frames stream back to
// the job's callback (tail matching the result), tenant-fair placement
// round-robins one tenant's jobs across distinct workers, and waiting
// on the tickets in turn collates in submission order.
func TestCoordinatorProgressAndPlacement(t *testing.T) {
	prog, err := parser.Parse("e(a, b). e(X, Y) -> e(Y, X).")
	if err != nil {
		t.Fatal(err)
	}
	local := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer local.Close()
	h, err := local.RegisterOntology(prog.Rules)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Config{
		Workers: startWorkers(t, 2, 1),
		Source:  local,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	snapshot := wire.EncodeSnapshot(prog.Database)
	var mu sync.Mutex
	var lastStats chase.Stats
	var events int
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		job := Job{
			Name:        "j",
			Meta:        service.RequestMeta{Tenant: "acme"},
			Fingerprint: h.Fingerprint,
			Variant:     chase.SemiOblivious,
			Snapshot:    snapshot,
		}
		if i == 0 {
			job.Progress = func(s chase.Stats) {
				mu.Lock()
				lastStats = s
				events++
				mu.Unlock()
			}
		}
		tk, err := coord.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	results := make([]Result, len(tickets))
	for i, tk := range tickets {
		results[i] = tk.Wait()
	}
	workersSeen := make(map[string]bool)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Name != "j" {
			t.Fatalf("result %d name %q, collation broken", i, r.Name)
		}
		workersSeen[r.Worker] = true
	}
	if len(workersSeen) != 2 {
		t.Fatalf("tenant's 4 jobs landed on %d workers, want round-robin over 2", len(workersSeen))
	}
	mu.Lock()
	defer mu.Unlock()
	if events == 0 {
		t.Fatal("no progress events streamed")
	}
	// The stream's tail is the finished run's statistics.
	if lastStats.Rounds != results[0].Stats.Rounds || lastStats.Atoms != results[0].Stats.Atoms {
		t.Fatalf("progress tail %+v does not match result %+v", lastStats, results[0].Stats)
	}
}

// TestCoordinatorTypedErrors: remote failures arrive as *service.Error
// with the taxonomy kind round-tripped, sentinels wrap-checkable, and a
// closed coordinator fails Submit typed.
func TestCoordinatorTypedErrors(t *testing.T) {
	prog, err := parser.Parse("p(a). p(X) -> q(X).")
	if err != nil {
		t.Fatal(err)
	}
	local := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer local.Close()
	h, err := local.RegisterOntology(prog.Rules)
	if err != nil {
		t.Fatal(err)
	}

	// No Source: a cold worker's unknown-ontology is terminal and
	// crosses the wire wrap-checkable.
	coord, err := NewCoordinator(Config{Workers: startWorkers(t, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := coord.Submit(Job{Name: "cold", Fingerprint: h.Fingerprint, Snapshot: wire.EncodeSnapshot(prog.Database)})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	var se *service.Error
	if !errors.As(res.Err, &se) || se.Kind != service.KindUnknownOntology {
		t.Fatalf("cold submit err = %v, want KindUnknownOntology", res.Err)
	}
	if !errors.Is(res.Err, service.ErrUnknownOntology) {
		t.Fatalf("remote unknown-ontology not wrap-checkable: %v", res.Err)
	}

	// A corrupt payload fails remote admission with KindDecode.
	coordWarm, err := NewCoordinator(Config{Workers: coord.cfg.Workers, Source: local})
	if err != nil {
		t.Fatal(err)
	}
	defer coordWarm.Close()
	bad, err := coordWarm.Submit(Job{Name: "corrupt", Fingerprint: h.Fingerprint, Snapshot: []byte("not wire")})
	if err != nil {
		t.Fatal(err)
	}
	if r := bad.Wait(); !errors.As(r.Err, &se) || se.Kind != service.KindDecode {
		t.Fatalf("corrupt payload err = %v, want KindDecode", r.Err)
	}

	coord.Close()
	coord.Close() // idempotent
	_, err = coord.Submit(Job{Name: "late"})
	if !errors.Is(err, ErrCoordinatorClosed) {
		t.Fatalf("post-Close submit err = %v, want ErrCoordinatorClosed", err)
	}
	if !errors.As(err, &se) || se.Kind != service.KindUnavailable {
		t.Fatalf("post-Close submit err = %v, want KindUnavailable", err)
	}
}

// TestCoordinatorDeadWorker: a fleet whose worker never existed fails
// typed after the dial retries, wrapping ErrTransport inside the
// KindUnavailable taxonomy entry.
func TestCoordinatorDeadWorker(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Workers:      []string{"127.0.0.1:1"}, // reserved port, nothing listens
		DialAttempts: 2,
		DialBackoff:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	tk, err := coord.Submit(Job{Name: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if !errors.Is(res.Err, ErrTransport) {
		t.Fatalf("dead worker err = %v, want ErrTransport", res.Err)
	}
	var se *service.Error
	if !errors.As(res.Err, &se) || se.Kind != service.KindUnavailable {
		t.Fatalf("dead worker err = %v, want KindUnavailable", res.Err)
	}
	if _, err := NewCoordinator(Config{}); err == nil {
		t.Fatal("coordinator with no workers constructed")
	}
}

// TestCoordinatorCloseFailsParkedSubmit: a Submit parked on a full
// worker lane when Close begins fails typed — KindUnavailable wrapping
// ErrCoordinatorClosed — instead of sending on the closed lane, while
// the jobs already queued still run to their (here: transport-failed)
// results and Close returns.
func TestCoordinatorCloseFailsParkedSubmit(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Workers:      []string{filepath.Join(t.TempDir(), "absent.sock")},
		Network:      "unix",
		QueueBound:   1,
		DialAttempts: 3,
		DialBackoff:  200 * time.Millisecond, // each queued job dials for ~400ms
	})
	if err != nil {
		t.Fatal(err)
	}
	lane := coord.workers[0].queue
	first, err := coord.Submit(Job{Name: "first"})
	if err != nil {
		t.Fatal(err)
	}
	for len(lane) > 0 { // the link takes the first job off the lane
		time.Sleep(time.Millisecond)
	}
	second, err := coord.Submit(Job{Name: "second"}) // fills the lane
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := coord.Submit(Job{Name: "parked"})
		parked <- err
	}()
	select {
	case err := <-parked:
		t.Fatalf("third Submit returned %v before Close, want it parked on the full lane", err)
	case <-time.After(50 * time.Millisecond):
	}
	closed := make(chan struct{})
	go func() {
		coord.Close()
		close(closed)
	}()
	select {
	case err := <-parked:
		var se *service.Error
		if !errors.Is(err, ErrCoordinatorClosed) || !errors.As(err, &se) || se.Kind != service.KindUnavailable {
			t.Fatalf("parked Submit err = %v, want KindUnavailable wrapping ErrCoordinatorClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked Submit still blocked after Close")
	}
	for _, tk := range []*Ticket{first, second} {
		if r := tk.Wait(); !errors.Is(r.Err, ErrTransport) {
			t.Fatalf("queued job err = %v, want ErrTransport", r.Err)
		}
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}
