package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Operation kinds a workload's requests are made of.
const (
	opChase  = "chase"
	opDecide = "decide"
	opDelta  = "delta"
)

// workload is one closed-loop traffic mix over the chase stack.
type workload interface {
	// setup makes the inputs from the seed, starts the serving stack,
	// computes the reference answers and warms up. It is timed as setup_s.
	setup() error
	// request sends client c's next request and waits for its answer(s).
	// Each operation comes back checked against its reference; tr is nil
	// on untraced runs.
	request(c int, tr *tracer) []opResult
	// counters reads the serving stack's cumulative counters.
	counters() stackCounters
	close()
}

// partition hands each client its own share of a pool of inputs.
type partition [clients]int

// next returns client c's next index into a pool of n inputs: c,
// c+clients, c+2·clients, … modulo n. With n a multiple of clients no two
// clients ever take the same input, so no two in-flight jobs read one
// database.
func (p *partition) next(c, n int) int {
	i := (c + clients*p[c]) % n
	p[c]++
	return i
}

// opResult is one operation as its client saw it.
type opResult struct {
	op    string
	lat   time.Duration // Submit call to the return of Wait
	wait  time.Duration // estimated wait before the job started
	atoms int           // atoms of the materialized result
	err   error         // failure or wrong answer
	root  int64         // root span of the operation, traced runs only
}

// loopStats is one measured window.
type loopStats struct {
	elapsed    time.Duration
	ops        []opResult
	allocBytes uint64 // TotalAlloc growth over the window
}

// runLoop drives the workload with the closed-loop clients for d.
func runLoop(w workload, d time.Duration, tr *tracer) loopStats {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	per := make([][]opResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[c] = append(per[c], w.request(c, tr)...)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	st := loopStats{elapsed: elapsed, allocBytes: after.TotalAlloc - before.TotalAlloc}
	for _, ops := range per {
		st.ops = append(st.ops, ops...)
	}
	return st
}

func (s loopStats) failed() int {
	n := 0
	for _, r := range s.ops {
		if r.err != nil {
			n++
		}
	}
	return n
}

func (s loopStats) atoms() int {
	n := 0
	for _, r := range s.ops {
		if r.err == nil {
			n += r.atoms
		}
	}
	return n
}

func (s loopStats) reqPerSec() float64 {
	return float64(len(s.ops)-s.failed()) / s.elapsed.Seconds()
}

// latencies returns the latencies of one operation kind in milliseconds,
// a failed operation counting as an infinite latency.
func (s loopStats) latencies(op string) []float64 {
	var out []float64
	for _, r := range s.ops {
		if r.op != op {
			continue
		}
		if r.err != nil {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(r.lat))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	return quantile(cp, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
