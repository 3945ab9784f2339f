package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/families"
	"repro/internal/fleet"
	"repro/internal/logic"
	rt "repro/internal/runtime"
	"repro/internal/service"
	"repro/internal/tgds"
	"repro/internal/wire"
)

// obdaFleet is the serving path: University databases sent as wire
// snapshots, addressed by fingerprint, to a coordinator over two
// in-process fleet servers on unix sockets, each embedding a 1-worker
// service with its own compile cache.
type obdaFleet struct {
	sz   sizes
	seed int64

	fp    compile.Fingerprint
	snaps [][]byte
	refs  []chaseRef

	stack *fleetStack
	next  partition
}

func newOBDAFleet(sz sizes, seed int64) workload { return &obdaFleet{sz: sz, seed: seed} }

// universityInputs builds n University(scale) databases from the seed.
func universityInputs(scale, n int, seed int64) (*tgds.Set, []*logic.Instance) {
	dbs := make([]*logic.Instance, n)
	var sigma *tgds.Set
	for k := range dbs {
		w := families.University(scale, seed*1000+int64(k))
		dbs[k], sigma = w.Database, w.Sigma
	}
	return sigma, dbs
}

func (w *obdaFleet) setup() error {
	sigma, dbs := universityInputs(w.sz.uniScale, w.sz.uniPool, w.seed)
	w.snaps = make([][]byte, len(dbs))
	w.refs = make([]chaseRef, len(dbs))
	parallel(len(dbs), func(k int) {
		w.snaps[k] = wire.EncodeSnapshot(dbs[k])
		w.refs[k] = refOf(chase.Run(dbs[k], sigma, chase.Options{}))
	})
	stack, err := startFleet(2, sigma)
	if err != nil {
		return err
	}
	w.stack, w.fp = stack, stack.fp
	// Warm-up: one request per worker, which also pays each worker's
	// cold pull of Σ.
	for c := 0; c < clients; c++ {
		if r := w.request(c, nil); r[0].err != nil {
			return fmt.Errorf("warm-up: %w", r[0].err)
		}
	}
	return nil
}

func (w *obdaFleet) request(c int, tr *tracer) []opResult {
	k := w.next.next(c, len(w.snaps))
	job := fleetJob(w.fp, w.snaps[k])

	req := tr.request()
	root := tr.start("request", 0, req)
	start := time.Now()
	var tk *fleet.Ticket
	var err error
	tr.timed("fleet.submit", root, req, func() { tk, err = w.stack.coord.Submit(job) })
	var res fleet.Result
	if err == nil {
		tr.timed("fleet.wait", root, req, func() { res = tk.Wait() })
		err = res.Err
	}
	lat := time.Since(start)
	tr.end(root)

	out := opResult{op: opChase, lat: lat, wait: -1, root: root, err: err}
	if err == nil {
		out.atoms = res.Instance.Len()
		out.err = w.refs[k].checkChase(res.Instance, res.Stats, res.Terminated)
	}
	return []opResult{out}
}

// fleetJob is an exact semi-oblivious chase of a snapshot by fingerprint.
func fleetJob(fp compile.Fingerprint, snapshot []byte) fleet.Job {
	return fleet.Job{Name: "obda", Fingerprint: fp, Variant: chase.SemiOblivious, Snapshot: snapshot}
}

func (w *obdaFleet) counters() stackCounters {
	busy, n := w.stack.busy.snapshot()
	return stackCounters{cache: w.stack.cacheStats(), busy: busy, busyN: n}
}

func (w *obdaFleet) close() {
	if w.stack != nil {
		w.stack.close()
	}
}

// fleetStack is a coordinator over n in-process fleet servers listening on
// unix sockets under the benchmark's output directory.
type fleetStack struct {
	fp      compile.Fingerprint
	src     *service.Service
	svcs    []*service.Service
	caches  []*compile.Cache
	servers []*fleet.Server
	socks   []string
	busy    busyClock
	coord   *fleet.Coordinator
	wg      sync.WaitGroup
}

var sockSeq atomic.Int64

func startFleet(n int, sigma *tgds.Set) (*fleetStack, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	s := &fleetStack{src: service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})}
	h, err := s.src.RegisterOntology(sigma)
	if err != nil {
		s.close()
		return nil, err
	}
	s.fp = h.Fingerprint
	for i := 0; i < n; i++ {
		// Relative paths keep the socket name within the unix limit
		// wherever the checkout lives.
		sock := filepath.Join(outDir, fmt.Sprintf("w%d-%d.sock", os.Getpid(), sockSeq.Add(1)))
		os.Remove(sock)
		lis, err := net.Listen("unix", sock)
		if err != nil {
			s.close()
			return nil, err
		}
		cache := compile.NewCache(0)
		svc := service.New(service.Config{Workers: 1, Cache: cache})
		srv := fleet.NewServer(svc)
		s.socks = append(s.socks, sock)
		s.caches = append(s.caches, cache)
		s.svcs = append(s.svcs, svc)
		s.servers = append(s.servers, srv)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// Serve returns nil after Close; a listener failure before
			// that fails the exchanges, which are counted.
			_ = srv.Serve(busyListener{Listener: lis, clock: &s.busy})
		}()
	}
	s.coord, err = fleet.NewCoordinator(fleet.Config{Workers: s.socks, Network: "unix", Source: s.src})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *fleetStack) cacheStats() compile.Stats {
	var sum compile.Stats
	for _, c := range s.caches {
		st := c.Stats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
	}
	return sum
}

func (s *fleetStack) close() {
	if s.coord != nil {
		s.coord.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	s.wg.Wait()
	for _, svc := range s.svcs {
		svc.Close()
	}
	s.src.Close()
	for _, sock := range s.socks {
		os.Remove(sock)
	}
}

// busyClock accumulates the time fleet servers spend on exchanges: from
// the first byte of a request frame to the first write of its answer.
type busyClock struct {
	mu    sync.Mutex
	total time.Duration
	n     int
}

func (b *busyClock) snapshot() (time.Duration, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total, b.n
}

type busyListener struct {
	net.Listener
	clock *busyClock
}

func (l busyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &busyConn{Conn: c, clock: l.clock}, nil
}

// busyConn is used by one server handler goroutine, which reads a request
// and writes its answer in turn.
type busyConn struct {
	net.Conn
	clock    *busyClock
	inFlight bool
	since    time.Time
}

func (c *busyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.inFlight {
		c.inFlight, c.since = true, time.Now()
	}
	return n, err
}

func (c *busyConn) Write(p []byte) (int, error) {
	if c.inFlight {
		d := time.Since(c.since)
		c.inFlight = false
		c.clock.mu.Lock()
		c.clock.total += d
		c.clock.n++
		c.clock.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// parallel runs fn(0..n-1) on two workers, the core count the benchmark
// is sized for.
func parallel(n int, fn func(i int)) {
	rt.NewExecutor(2).Map(n, func(i, _ int) { fn(i) })
}

var bg = context.Background()
