package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`    // the request (or probe) the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer holds every span in memory until the run ends. A nil *tracer
// records nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request allocates a request id.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return int64(len(t.spans))
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent, req int64, fn func()) time.Duration {
	id := t.start(name, parent, req)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns every span's duration minus the part of its interval
// its children cover.
func (t *tracer) selfTimes() map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// reconcile compares, for the root span root, the sum of the self times
// of every span of its request with the root's duration; 1 means the
// spans account for the whole latency and nothing twice.
func (t *tracer) reconcile(root int64, self map[int64]int64) float64 {
	r := t.spans[root-1]
	sum := int64(0)
	var walk func(id int64)
	walk = func(id int64) {
		sum += self[id]
		for _, s := range t.spans {
			if s.Parent == id {
				walk(s.ID)
			}
		}
	}
	walk(root)
	return float64(sum) / float64(r.End-r.Start)
}

// save writes the spans as JSON lines.
func (t *tracer) save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
