package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload briefly on small inputs, untraced and
// traced, and checks that the final line names every metric of
// BENCHMARK.json with its unit and that no answer was wrong.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		listed[w.Name] = true
	}
	for name := range workloads {
		if !listed[name] {
			t.Logf("workload %s is not in BENCHMARK.json (see README.md)", name)
		}
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "7", "--seconds", "1",
					"--smoke", "--trace", trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if trace == "0" && !strings.Contains(stderr.String(), "failed_frac") {
					t.Errorf("report lacks failed_frac:\n%s", stderr.String())
				}
			})
		}
	}
}

// TestReportMetrics checks the report-only end-to-end metrics: every
// workload reports failed_frac = 0 and the percentiles of each operation
// it performs, with their sample counts.
func TestReportMetrics(t *testing.T) {
	dir := t.TempDir()
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	ops := map[string][]string{
		"obda-fleet":    {"chase"},
		"guarded-admit": {"chase", "decide"},
		"tc-delta":      {"chase", "delta"},
	}
	for name, want := range ops {
		o := options{workload: name, seed: 3, seconds: 0.5, smoke: true, setups: 1}
		rep, err := measure(o, &bytes.Buffer{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := map[string]metric{}
		for _, m := range append(rep.endToEndMetrics, rep.extraMetrics...) {
			got[m.Name] = m
		}
		if m := got["failed_frac"]; m.Unit != "ratio" || m.Value != 0 {
			t.Errorf("%s: failed_frac = %v %s", name, m.Value, m.Unit)
		}
		for _, op := range want {
			for _, q := range []string{"_p50_ms", "_p90_ms"} {
				if m, ok := got[op+q]; !ok || m.Unit != "ms" || m.Samples < 1 {
					t.Errorf("%s: %s%s missing or without samples: %+v", name, op, q, m)
				}
			}
		}
	}
}

// TestSelfTimes checks the span arithmetic the per-layer metrics rest on.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},
		{ID: 4, Parent: 3, Name: "c", Start: 35, End: 45},
	}}
	self := tr.selfTimes()
	if self[1] != 40 || self[2] != 30 || self[3] != 30 || self[4] != 10 {
		t.Fatalf("self times %v", self)
	}
	// Overlapping children make the sum exceed the root; the check must
	// report that rather than hide it.
	if got := tr.reconcile(1, self); got != 1.1 {
		t.Fatalf("reconcile = %v, want 1.1", got)
	}
}

// TestPartition checks that the clients split a pool without sharing an
// input and that together they take all of it.
func TestPartition(t *testing.T) {
	var p partition
	owner := map[int]int{}
	for round := 0; round < 3; round++ {
		for c := 0; c < clients; c++ {
			for k := 0; k < 4; k++ {
				i := p.next(c, 8)
				if o, ok := owner[i]; ok && o != c {
					t.Fatalf("input %d taken by clients %d and %d", i, o, c)
				}
				owner[i] = c
			}
		}
	}
	if len(owner) != 8 {
		t.Fatalf("clients took %d of 8 inputs", len(owner))
	}
}
