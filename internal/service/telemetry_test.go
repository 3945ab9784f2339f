package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestServiceTelemetryDisabled: a service without telemetry keeps the
// whole surface nil-safe — Metrics, Telemetry, Handler.
func TestServiceTelemetryDisabled(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	if s.Metrics() != nil || s.Telemetry() != nil || s.Handler() != nil {
		t.Fatal("disabled service exposes telemetry surfaces")
	}
}

// TestServiceRequestMetrics: every submitted request is billed to
// service_requests_total{op,lane,tenant} and to its ontology
// fingerprint prefix ("inline" for attached Σ).
func TestServiceRequestMetrics(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	tel := telemetry.New()
	s := newService(t, Config{Workers: 1, Telemetry: tel})

	// One inline chase (tenant acme, high lane), one fingerprinted
	// chase, one decide, one experiment.
	var tickets []*Ticket
	admit := func(tk *Ticket, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	admit(s.SubmitChase(context.Background(), ChaseRequest{
		Meta:     RequestMeta{Tenant: "acme", Priority: PriorityHigh},
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	}))
	h, err := s.RegisterOntology(prog.Rules)
	if err != nil {
		t.Fatal(err)
	}
	admit(s.SubmitByFingerprint(context.Background(), h.Fingerprint,
		Payload{Instance: prog.Database}, ChaseRequest{}))
	admit(s.SubmitDecide(context.Background(), DecideRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	}))
	admit(s.SubmitExperiment(context.Background(), ExperimentRequest{
		ID: "XP-DEPTH", Quick: true,
	}))
	for _, tk := range tickets {
		tk.Wait()
	}

	snap := s.Metrics()
	for _, c := range []struct {
		values []string
		want   float64
	}{
		{[]string{"chase", "high", "acme"}, 1},
		{[]string{"chase", "normal", "anon"}, 1},
		{[]string{"decide", "normal", "anon"}, 1},
		{[]string{"experiment", "normal", "anon"}, 1},
	} {
		if got, ok := snap.GetSeries("service_requests_total", c.values...); !ok || got != c.want {
			t.Fatalf("service_requests_total%v = %v, %v (want %v)", c.values, got, ok, c.want)
		}
	}
	prefix := hex.EncodeToString(h.Fingerprint[:4])
	if got, _ := snap.GetSeries("service_requests_by_ontology_total", prefix); got != 1 {
		t.Fatalf("by-ontology{%s} = %v, want 1", prefix, got)
	}
	if got, _ := snap.GetSeries("service_requests_by_ontology_total", "inline"); got != 2 {
		t.Fatalf("by-ontology{inline} = %v, want 2", got)
	}
	if got, _ := snap.GetSeries("service_requests_by_ontology_total", "none"); got != 1 {
		t.Fatalf("by-ontology{none} = %v, want 1 (the experiment)", got)
	}
	// The compile-cache bridge published through the same snapshot.
	if _, ok := snap.Get("compile_cache_hits"); !ok {
		t.Fatal("compile_cache_hits missing from snapshot")
	}
	misses, _ := snap.Get("compile_cache_misses")
	if misses <= 0 {
		t.Fatalf("compile_cache_misses = %v, want > 0", misses)
	}
	if entries, _ := snap.Get("compile_cache_entries"); entries <= 0 {
		t.Fatalf("compile_cache_entries = %v, want > 0", entries)
	}
}

// TestServiceWireMeter: wire payload decodes and EncodeChase encodes
// feed wire_decode_bytes / wire_encode_bytes while the service is live,
// and Close restores the previous process-wide meter.
func TestServiceWireMeter(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	snapBytes := wire.EncodeSnapshot(prog.Database)

	tel := telemetry.New()
	s := New(Config{Workers: 1, Telemetry: tel})
	tk, err := s.SubmitChase(context.Background(), ChaseRequest{
		Database: Payload{Snapshot: snapBytes},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := tk.EncodeChase()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty encoded result")
	}
	// The encoded result round-trips to the materialized instance.
	dec, err := wire.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != tk.Wait().Chase.Instance.Len() {
		t.Fatal("encoded result does not round-trip")
	}

	m := s.Metrics()
	decoded, _ := m.Get("wire_decode_bytes")
	if decoded < float64(len(snapBytes)) {
		t.Fatalf("wire_decode_bytes = %v, want >= %d", decoded, len(snapBytes))
	}
	encoded, _ := m.Get("wire_encode_bytes")
	if encoded < float64(len(data)) {
		t.Fatalf("wire_encode_bytes = %v, want >= %d", encoded, len(data))
	}

	// Close withdraws the registration: encodes after Close no longer
	// bill this service's registry.
	s.Close()
	_ = wire.EncodeSnapshot(prog.Database)
	after, _ := s.Metrics().Get("wire_encode_bytes")
	if after != encoded {
		t.Fatalf("post-Close encode billed a closed service: %v -> %v", encoded, after)
	}

	// EncodeChase on a non-chase result fails typed.
	s2 := newService(t, Config{Workers: 1})
	dtk, err := s2.SubmitDecide(context.Background(), DecideRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dtk.EncodeChase(); err == nil {
		t.Fatal("EncodeChase on a decide ticket succeeded")
	}
}

// TestServiceEncodeTraceSpan: a traced chase job's EncodeChase records
// the terminal "encode" span.
func TestServiceEncodeTraceSpan(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	tel := telemetry.New()
	tel.Trace = telemetry.NewTraceSink()
	s := newService(t, Config{Workers: 1, Telemetry: tel})
	tk, err := s.SubmitChase(context.Background(), ChaseRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.EncodeChase(); err != nil {
		t.Fatal(err)
	}
	events := tel.Trace.Events()
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	last := events[len(events)-1]
	if last.Span != "encode" {
		t.Fatalf("last span = %q, want encode (all: %+v)", last.Span, events)
	}
	var b bytes.Buffer
	if _, err := tel.Trace.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"span": "admit"`) {
		t.Fatalf("trace rendering misses the admit span:\n%s", b.String())
	}
}

// TestServiceHandler: the health surface serves liveness with scheduler
// and cache fields plus both metric expositions.
func TestServiceHandler(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	tel := telemetry.New()
	s := newService(t, Config{Workers: 2, QueueBound: 4, Telemetry: tel})
	tk, err := s.SubmitChase(context.Background(), ChaseRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if err != nil {
		t.Fatal(err)
	}
	tk.Wait()

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := `{"status": "ok", "cache_entries": "1", "queue_bound": "4", "queue_len": "0", "workers": "2"}` + "\n"
	if string(body) != want {
		t.Fatalf("healthz = %q, want %q", body, want)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `service_requests_total{op="chase",lane="normal",tenant="anon"} 1`) {
		t.Fatalf("metrics exposition misses the request counter:\n%s", body)
	}
}

// TestTwoServiceWireMeters: two concurrent telemetry-enabled Services —
// exactly what cmd/chased plus a test coordinator create in one process
// — each bill codec traffic to their own registry, and closing the
// FIRST-constructed one leaves the second's accounting live. Under the
// old process-global SetMeter, the second install stomped the first and
// the inverted Close restored a stale meter.
func TestTwoServiceWireMeters(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	snap := wire.EncodeSnapshot(prog.Database)

	tel1, tel2 := telemetry.New(), telemetry.New()
	s1 := New(Config{Workers: 1, Telemetry: tel1})
	s2 := New(Config{Workers: 1, Telemetry: tel2})
	defer s2.Close()

	submit := func(s *Service) {
		t.Helper()
		tk, err := s.SubmitChase(context.Background(), ChaseRequest{
			Database: Payload{Snapshot: snap},
			Ontology: OntologyRef{Set: prog.Rules},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r := tk.Wait(); r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	// A decode through either service bills BOTH registries: the meter
	// seam is additive, not last-install-wins.
	submit(s1)
	d1, _ := s1.Metrics().Get("wire_decode_bytes")
	d2, _ := s2.Metrics().Get("wire_decode_bytes")
	if d1 < float64(len(snap)) || d2 < float64(len(snap)) {
		t.Fatalf("decode billing stomped: s1=%v s2=%v, want both >= %d", d1, d2, len(snap))
	}

	// Closing s1 (constructed first — the ordering inversion) must leave
	// s2's meter registered: further traffic keeps billing s2 and stops
	// billing s1.
	s1.Close()
	submit(s2)
	d1after, _ := s1.Metrics().Get("wire_decode_bytes")
	d2after, _ := s2.Metrics().Get("wire_decode_bytes")
	if d1after != d1 {
		t.Fatalf("closed service still billed: %v -> %v", d1, d1after)
	}
	if d2after < d2+float64(len(snap)) {
		t.Fatalf("surviving service lost its meter: %v -> %v", d2, d2after)
	}
}
