package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/compile"
)

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples,omitempty"` // sample count behind a percentile or median
	Moves   string  `json:"moves,omitempty"`   // the end-to-end metric a layer metric should move
}

// report collects one run's measurements.
type report struct {
	o      options
	setups []float64
	loop   loopStats // untraced window
	traced loopStats // traced window (traced runs only)
	tr     *tracer
	panel  *panelResult

	endToEndMetrics []metric // gated metrics, printed with -trace 0
	extraMetrics    []metric // report-only: percentiles of the other operations, failed_frac
	layerMetrics    []metric // printed with -trace 1
}

func newReport(o options) *report { return &report{o: o} }

func (r *report) attempted() int {
	n := len(r.loop.ops) + len(r.traced.ops)
	if r.panel != nil {
		n += r.panel.checks
	}
	return n
}

func (r *report) failed() int {
	n := r.loop.failed() + r.traced.failed()
	if r.panel != nil {
		n += r.panel.failed
	}
	return n
}

func (r *report) correct() bool { return r.failed() == 0 && r.attempted() > 0 }

// endToEnd computes the end-to-end metrics of the untraced window.
func (r *report) endToEnd() {
	l := r.loop
	atoms := l.atoms()
	add := func(name, unit string, v float64, n int) {
		r.endToEndMetrics = append(r.endToEndMetrics, metric{Name: name, Unit: unit, Value: v, Samples: n})
	}
	add("setup_s", "s", median(r.setups), len(r.setups))
	add("req_per_s", "1/s", l.reqPerSec(), len(l.ops))
	add("atoms_per_s", "1/s", float64(atoms)/l.elapsed.Seconds(), len(l.ops))
	lat := l.latencies(opChase)
	add("chase_p50_ms", "ms", quantile(lat, 0.5), len(lat))
	add("chase_p90_ms", "ms", quantile(lat, 0.9), len(lat))
	add("peak_rss_mb", "MB", peakRSSMB(), 1)
	add("alloc_bytes_per_atom", "B/atom", float64(l.allocBytes)/float64(max(atoms, 1)), atoms)

	for _, op := range []string{opDecide, opDelta} {
		if lat := l.latencies(op); len(lat) > 0 {
			r.extraMetrics = append(r.extraMetrics,
				metric{Name: op + "_p50_ms", Unit: "ms", Value: quantile(lat, 0.5), Samples: len(lat)},
				metric{Name: op + "_p90_ms", Unit: "ms", Value: quantile(lat, 0.9), Samples: len(lat)})
		}
	}
	r.extraMetrics = append(r.extraMetrics, metric{Name: "failed_frac", Unit: "ratio",
		Value: float64(l.failed()) / float64(max(len(l.ops), 1)), Samples: len(l.ops)})
}

// perLayer computes the per-layer metrics: the panel's, and those of the
// traced window of the workload itself.
func (r *report) perLayer(before, after stackCounters, panel *panelResult) {
	r.panel = panel
	byName := make(map[string]metric)
	for _, m := range panel.metrics {
		byName[m.Name] = m
	}
	set := func(name, unit string, v float64, n int) {
		byName[name] = metric{Name: name, Unit: unit, Value: v, Samples: n}
	}

	t := r.traced
	var waits []float64
	var lats []float64
	for _, op := range t.ops {
		if op.err != nil {
			continue
		}
		lats = append(lats, ms(op.lat))
		if op.wait >= 0 {
			waits = append(waits, ms(op.wait))
		}
	}
	if len(waits) > 0 {
		set("runtime.queue_wait_ms", "ms", mean(waits), len(waits))
	} else {
		// A fleet reply carries no job wall-clock: the wait is the client
		// latency minus the time the servers spent on the exchange.
		busy, n := after.busy-before.busy, after.busyN-before.busyN
		set("runtime.queue_wait_ms", "ms", mean(lats)-ms(busy)/float64(max(n, 1)), len(lats))
	}
	hits := float64(after.cache.Hits - before.cache.Hits)
	misses := float64(after.cache.Misses - before.cache.Misses)
	set("compile.hit_ratio", "ratio", hits/math.Max(hits+misses, 1), int(hits+misses))
	set("compile.evictions", "count", float64(after.cache.Evictions-before.cache.Evictions), 1)
	set("trace.overhead_frac", "ratio", 1-t.reqPerSec()/r.loop.reqPerSec(), len(t.ops))

	// Reconciliation: the self times of one request's spans must add up
	// to its end-to-end latency.
	self := r.tr.selfTimes()
	rec := math.NaN()
	for _, op := range t.ops {
		if op.err == nil && op.root != 0 {
			rec = r.tr.reconcile(op.root, self)
			break
		}
	}
	set("trace.reconcile_frac", "ratio", rec, 1)

	for _, name := range layerOrder {
		m, ok := byName[name]
		if !ok {
			m = metric{Name: name, Unit: "missing", Value: math.NaN()}
		}
		m.Moves = layerMoves[name]
		r.layerMetrics = append(r.layerMetrics, m)
	}
}

// stackCounters are the serving stack's cumulative counters, read before
// and after the traced window.
type stackCounters struct {
	cache compile.Stats
	busy  time.Duration // fleet servers' time on exchanges
	busyN int
}

func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// printed returns the metrics of the final JSON line.
func (r *report) printed() []metric {
	if r.o.trace {
		return r.layerMetrics
	}
	return r.endToEndMetrics
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// result is the final line of standard output. A value that could not be
// measured is reported as -1 (JSON has no NaN) and fails the run.
func (r *report) result() jsonResult {
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted(), Failed: r.failed(), Metrics: map[string]jsonValue{}}
	for _, m := range r.printed() {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, out.Correct = -1, false
		}
		out.Metrics[m.Name] = jsonValue{Value: v, Unit: m.Unit}
	}
	return out
}

// stamp describes the machine and the program a run measured.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
	Clients    int     `json:"clients"`
	Workers    string  `json:"workers"`
	Time       string  `json:"time"`
}

var workersOf = map[string]string{
	"obda-fleet":    "2 fleet servers x 1 service worker",
	"guarded-admit": "1 service x 2 workers",
	"tc-delta":      "1 service x 2 workers",
}

func (r *report) stamp() stamp {
	return stamp{
		Workload: r.o.workload, Seed: r.o.seed, Seconds: r.o.seconds, Trace: r.o.trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Revision: revision(), Clients: clients, Workers: workersOf[r.o.workload],
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// write prints the human-readable report.
func (r *report) write(w io.Writer) {
	s := r.stamp()
	fmt.Fprintf(w, "chasebench %s seed=%d window=%gs trace=%v gomaxprocs=%d cpus=%d %s rev=%s clients=%d workers=%q\n",
		s.Workload, s.Seed, s.Seconds, s.Trace, s.GoMaxProcs, s.NumCPU, s.GoVersion, s.Revision, s.Clients, s.Workers)
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", r.attempted(), r.failed())
	for _, m := range r.printed() {
		writeMetric(w, m)
	}
	if !r.o.trace {
		for _, m := range r.extraMetrics {
			writeMetric(w, m)
		}
	}
	for _, op := range append(r.loop.ops, r.traced.ops...) {
		if op.err != nil {
			fmt.Fprintf(w, "  FAILED %s: %v\n", op.op, op.err)
			break
		}
	}
	if r.panel != nil {
		for _, e := range r.panel.errs {
			fmt.Fprintf(w, "  FAILED panel: %v\n", e)
		}
	}
}

func writeMetric(w io.Writer, m metric) {
	fmt.Fprintf(w, "  %-28s %14.4f %-7s n=%-6d %s\n", m.Name, m.Value, m.Unit, m.Samples, m.Moves)
}

// save writes the full report, and in traced runs the spans, under the
// benchmark's output directory.
func (r *report) save() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Stamp     stamp     `json:"stamp"`
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Setups    []float64 `json:"setup_s_each"`
		EndToEnd  []metric  `json:"end_to_end,omitempty"`
		Extra     []metric  `json:"end_to_end_extra,omitempty"`
		PerLayer  []metric  `json:"per_layer,omitempty"`
	}{r.stamp(), r.correct(), r.attempted(), r.failed(), r.setups, r.endToEndMetrics, r.extraMetrics, r.layerMetrics}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if err := os.WriteFile(reportPath(r.o, "report", "json"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	if r.tr != nil {
		return r.tr.save(reportPath(r.o, "spans", "jsonl"))
	}
	return nil
}

// MarshalJSON writes a value that could not be measured as null.
func (m metric) MarshalJSON() ([]byte, error) {
	type plain metric
	var v any = m.Value
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		v = nil
	}
	return json.Marshal(struct {
		plain
		Value any `json:"value"`
	}{plain(m), v})
}

// revision names the measured source: the git commit when the checkout is
// a git work tree, otherwise a digest of every Go file outside the
// benchmark.
var revision = sync.OnceValue(func() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		if sha, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
			return strings.TrimSpace(string(sha))
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "chasebench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
})
