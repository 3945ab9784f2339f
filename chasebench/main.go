// Command chasebench is the chase stack's end-to-end benchmark. It runs one
// closed-loop workload — 2 clients, each sending its next request only
// after the previous one returned — for a fixed window, checks every answer
// against a reference computed during set-up, and prints the end-to-end
// metrics. With -trace 1 it instead records spans around every call into
// the stack's packages and prints the per-layer metrics derived from them.
//
// Usage (from the repository root):
//
//	bash chasebench/run.sh --workload obda-fleet --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a human-readable report goes to
// standard error and, with spans in traced mode, under .bench_build/.
// See README.md for the workloads, the metrics and the held-out seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// procStart is the process start as the benchmark sees it: setup_s counts
// from here on the first set-up.
var procStart = time.Now()

const (
	clients = 2
	outDir  = ".bench_build/chasebench"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	setups   int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "chasebench:", err)
		return 2
	}
	rep, err := measure(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "chasebench:", err)
		return 1
	}
	rep.write(stderr)
	if err := rep.save(); err != nil {
		fmt.Fprintln(stderr, "chasebench: writing report:", err)
		return 1
	}
	res := rep.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "chasebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("chasebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "input seed (README.md names the held-out seed)")
	fs.Float64Var(&o.seconds, "seconds", 25, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "small inputs for the benchmark's own test")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want %s)", o.workload, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, errors.New("-seconds must be positive")
	}
	// setup_s is the median of several set-ups. guarded-admit's set-up
	// decides and chases its whole pool: three of them take as long as
	// five of the others.
	switch {
	case o.smoke:
		o.setups = 2
	case o.workload == "guarded-admit":
		o.setups = 3
	default:
		o.setups = 5
	}
	o.trace = trace == 1
	return o, nil
}

// measure sets the workload up o.setups times, then drives the last set-up
// through the measured window (and, traced, through the layer panel).
func measure(o options, log io.Writer) (*report, error) {
	sz := fullSizes
	if o.smoke {
		sz = smokeSizes
	}
	rep := newReport(o)
	var w workload
	for i := 0; i < o.setups; i++ {
		if w != nil {
			w.close()
			runtime.GC()
		}
		start := time.Now()
		if i == 0 {
			start = procStart
		}
		w = workloads[o.workload](sz, o.seed)
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		rep.setups = append(rep.setups, time.Since(start).Seconds())
	}
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	runtime.GC() // the window starts without set-up garbage
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Fprintf(log, "chasebench: %s seed=%d set-up %.3fs (median of %d), live heap %.1f MB\n",
		o.workload, o.seed, median(rep.setups), len(rep.setups), float64(mem.HeapAlloc)/(1<<20))

	window := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		rep.loop = runLoop(w, window, nil)
		rep.endToEnd()
		return rep, nil
	}
	// Traced: an untraced half and a traced half of the same window give
	// the tracing overhead; the panel then prices every layer on its own.
	rep.loop = runLoop(w, window/2, nil)
	tr := newTracer()
	before := w.counters()
	rep.traced = runLoop(w, window/2, tr)
	after := w.counters()
	// The panel runs on a heap without the workload's inputs, so its
	// figures do not depend on which workload ran before it.
	w.close()
	w = nil
	panel, err := runPanel(sz, o.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("layer panel: %w", err)
	}
	rep.tr = tr
	rep.perLayer(before, after, panel)
	return rep, nil
}

// sizes are the input sizes of every workload and probe.
type sizes struct {
	uniScale, uniPool                int // obda-fleet: University scale and distinct requests
	admitPool, admitFacts, admitSpan int // guarded-admit: pool entries, facts = admitFacts + [0, admitSpan]
	admitRounds                      int // round budget of a chase after an infinite verdict
	tcNodes, tcEpochs, tcEdges       int // tc-delta: path length, chains per client pair, edges per delta
	reps                             int // layer panel: repetitions per probe
}

var fullSizes = sizes{
	uniScale: 200, uniPool: 8,
	admitPool: 160, admitFacts: 1500, admitSpan: 0, admitRounds: 3,
	tcNodes: 64, tcEpochs: 8, tcEdges: 4,
	reps: 5,
}

var smokeSizes = sizes{
	uniScale: 20, uniPool: 4,
	admitPool: 12, admitFacts: 100, admitSpan: 100, admitRounds: 3,
	tcNodes: 16, tcEpochs: 2, tcEdges: 2,
	reps: 2,
}

// workloads maps a workload name to its constructor.
var workloads = map[string]func(sizes, int64) workload{
	"obda-fleet":    newOBDAFleet,
	"guarded-admit": newGuardedAdmit,
	"tc-delta":      newTCDelta,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// reportPath names a file under the benchmark's output directory.
func reportPath(o options, kind, ext string) string {
	mode := 0
	if o.trace {
		mode = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s-%s-seed%d-trace%d.%s", kind, o.workload, o.seed, mode, ext))
}
