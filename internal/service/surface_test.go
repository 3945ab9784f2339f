package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rt "repro/internal/runtime"
)

// TestTicketSurface covers the envelope-facing accessors: names, ops,
// indexes, meta — the surface a transport renders.
func TestTicketSurface(t *testing.T) {
	prog := parserProg(t, "p(a). p(X) -> q(X).")
	s := newService(t, Config{Workers: 1})
	if s.Cache() == nil {
		t.Fatal("service has no cache")
	}
	tk, err := s.SubmitChase(context.Background(), ChaseRequest{
		Meta:     RequestMeta{Tenant: "acme", Priority: PriorityLow},
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Name() != "chase" || tk.Op() != OpChase || tk.Index() != 0 {
		t.Fatalf("ticket surface: name=%q op=%v index=%d", tk.Name(), tk.Op(), tk.Index())
	}
	r := tk.Wait()
	if r.Err != nil || r.Op != OpChase {
		t.Fatalf("result %+v", r)
	}
	if r.Stats().Atoms == 0 {
		t.Fatal("chase result reports no atoms")
	}
	if r.Derivation() != nil {
		t.Fatal("derivation handle without RecordDerivation")
	}

	// Non-chase results have zero stats and no derivation.
	dtk, err := s.SubmitDecide(context.Background(), DecideRequest{
		Database: Payload{Instance: prog.Database},
		Ontology: OntologyRef{Set: prog.Rules},
	})
	if err != nil {
		t.Fatal(err)
	}
	dr := dtk.Wait()
	if dr.Op != OpDecide || dr.Stats().Atoms != 0 || dr.Derivation() != nil {
		t.Fatalf("decide result surface: %+v", dr)
	}
	// A non-chase ticket's Progress is never nil — it is an
	// already-closed sentinel, so a consumer ranging over it (or
	// selecting on it) falls through immediately instead of blocking
	// forever on a nil channel.
	ch := dtk.Progress()
	if ch == nil {
		t.Fatal("decide ticket Progress() returned nil")
	}
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("non-chase progress stream delivered a value")
		}
	default:
		t.Fatal("non-chase progress stream blocks; want an already-closed channel")
	}
}

// TestNamesAndTaxonomyStrings pins the rendered names a transport and
// request files rely on.
func TestNamesAndTaxonomyStrings(t *testing.T) {
	if s := fmt.Sprint(OpChase, " ", OpDecide, " ", OpExperiment, " ", OpRegistry); s != "chase decide experiment registry" {
		t.Fatalf("op names: %q", s)
	}
	kinds := []ErrorKind{KindInternal, KindBadRequest, KindUnknownOntology, KindDecode, KindOverloaded, KindUnavailable, KindCanceled}
	want := "internal bad-request unknown-ontology decode overloaded unavailable canceled"
	got := ""
	for i, k := range kinds {
		if i > 0 {
			got += " "
		}
		got += k.String()
	}
	if got != want {
		t.Fatalf("kind names: %q, want %q", got, want)
	}
	e := &Error{Kind: KindOverloaded, Op: OpChase, Name: "j", Err: rt.ErrQueueFull}
	if !errors.Is(e, rt.ErrQueueFull) {
		t.Fatal("Error does not unwrap to its sentinel")
	}
	if e.Error() == "" || classify(rt.ErrQueueFull) != KindOverloaded {
		t.Fatal("error rendering/classification broken")
	}
	if classify(errors.New("boom")) != KindInternal {
		t.Fatal("unknown error not classified internal")
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Fatal("unknown priority parsed")
	}
	if _, err := ParseVariant("psychic"); err == nil {
		t.Fatal("unknown variant parsed")
	}
	for in, want := range map[string]Priority{"": PriorityNormal, "high": PriorityHigh, "low": PriorityLow} {
		if p, err := ParsePriority(in); err != nil || p != want {
			t.Fatalf("ParsePriority(%q) = %v, %v", in, p, err)
		}
	}
}

// TestRequestFileDataRules: the separate data+rules form,
// absolute-path rejection, and missing-file failures.
func TestRequestFileDataRules(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "db.dlgp", "p(a).")
	rulesAbs := writeFile(t, dir, "rules.dlgp", "p(X) -> q(X).")
	path := writeFile(t, dir, "req.json",
		`{"kind": "decide", "data": "db.dlgp", "rules": "rules.dlgp", "method": "naive", "atomCap": 500}`)
	f, err := LoadRequestFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A request naming its rules by absolute path is rejected by the
	// shared resolver: references are confined to the request directory.
	escaped, err := LoadRequestFile(writeFile(t, dir, "escape.json", fmt.Sprintf(
		`{"kind": "decide", "data": "db.dlgp", "rules": %q}`, rulesAbs)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := escaped.DecideRequest(); err == nil || !strings.Contains(err.Error(), "escape") {
		t.Fatalf("absolute rules path accepted: %v", err)
	}
	req, err := f.DecideRequest()
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "naive" || req.AtomCap != 500 {
		t.Fatalf("envelope %+v", req)
	}
	if req.Database.Instance == nil || req.Database.Instance.Len() != 1 || req.Ontology.Set.Len() != 1 {
		t.Fatalf("inputs not loaded: %+v", req)
	}
	s := newService(t, Config{Workers: 1})
	tk, err := s.SubmitDecide(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Err != nil || r.Verdict == nil {
		t.Fatalf("result %+v err %v", r, r.Err)
	}

	// Missing referenced files fail at envelope build time.
	missing, err := LoadRequestFile(writeFile(t, dir, "missing.json", `{"kind": "chase", "program": "nope.dlgp"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := missing.ChaseRequest(); err == nil {
		t.Fatal("missing program accepted")
	}
	if _, err := LoadRequestFile(filepath.Join(dir, "absent.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("absent request file: %v", err)
	}
	// An experiment file without an id fails.
	noid, err := LoadRequestFile(writeFile(t, dir, "noid.json", `{"kind": "experiment"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noid.ExperimentRequest(); err == nil {
		t.Fatal("experiment file without id accepted")
	}
}
