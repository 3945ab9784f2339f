package fleet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/qos"
	"repro/internal/service"
)

// FuzzFleetFrame throws arbitrary bytes at the frame decoder and, for
// frames that parse, at every message decoder. Decoders must never
// panic, and any message that decodes must survive a re-encode →
// re-decode round trip byte-identically (the encode∘decode fixpoint the
// equivalence suites lean on).
func FuzzFleetFrame(f *testing.F) {
	f.Add(appendFrame(nil, kindRegister, encodeRegister(registerMsg{Rules: "p(X) -> q(X)."})))
	f.Add(appendFrame(nil, kindRegister, encodeRegister(registerMsg{
		Rules: "p(X) -> q(X).",
		Bounds: qos.EncodeBounds([]compile.VariantBound{
			{Variant: chase.SemiOblivious, Bound: compile.LearnedBound{Rounds: 3, Atoms: 40, Observed: true}},
			{Variant: chase.Restricted, Bound: compile.LearnedBound{Rounds: 2, Atoms: 12}},
		}),
	})))
	f.Add(appendFrame(nil, kindRegistered, encodeRegistered(registeredMsg{Fingerprint: compile.Fingerprint{1, 2, 3}})))
	f.Add(appendFrame(nil, kindSubmit, encodeSubmit(Job{
		Name: "job", Meta: service.RequestMeta{Tenant: "acme", Priority: -3}, Variant: chase.Restricted,
		Budget: qos.Budget{Atoms: 300, Rounds: 7}, Workers: 4,
		RecordDerivation: true, Progress: func(chase.Stats) {},
		Snapshot: []byte("snap"), Deltas: [][]byte{[]byte("d1"), nil},
	})))
	f.Add(appendFrame(nil, kindSubmit, encodeSubmit(Job{
		Name: "anytime", Variant: chase.SemiOblivious,
		Meta:     service.RequestMeta{QoS: qos.Policy{Mode: qos.Anytime, Deadline: 250 * time.Millisecond, Rounds: 3}},
		Snapshot: []byte("snap"),
	})))
	f.Add(appendFrame(nil, kindSubmit, encodeSubmit(Job{
		Name: "walled", Meta: service.RequestMeta{Tenant: "acme", Priority: service.PriorityHigh},
		Variant: chase.Oblivious, Budget: qos.Budget{Wall: 50 * time.Millisecond}, Snapshot: []byte("snap"),
	})))
	f.Add(appendFrame(nil, kindSubmit, encodeSubmit(Job{
		Name: "budgeted",
		Meta: service.RequestMeta{Tenant: "t", Priority: service.PriorityLow,
			QoS: qos.Policy{Mode: qos.Bounded}},
		Budget:   qos.Budget{Atoms: 1000, Rounds: 9, Wall: 2 * time.Second},
		Snapshot: []byte("snap"),
	})))
	f.Add(appendFrame(nil, kindSubmit, encodeSubmit(Job{
		Name: "learn", Meta: service.RequestMeta{QoS: qos.Policy{Learn: true}}, Snapshot: []byte("snap"),
	})))
	f.Add(appendFrame(nil, kindProgress, encodeProgress(chase.Stats{Atoms: 9, Rounds: 2, Nulls: 1})))
	f.Add(appendFrame(nil, kindResult, encodeResult(resultMsg{
		Terminated: true, Stats: chase.Stats{Atoms: 5}, Snapshot: []byte("s"), Derivation: "initial 1\n",
	})))
	f.Add(appendFrame(nil, kindResult, encodeResult(resultMsg{
		Stats: chase.Stats{Atoms: 5, Rounds: 3}, Source: qos.SourceDeadline, Snapshot: []byte("s"),
	})))
	f.Add(appendFrame(nil, kindError, encodeError(errorMsg{Code: "unknown-ontology", Message: "no such σ"})))
	f.Add([]byte{'F', 'L', Version, kindSubmit, 0, 0, 0, 0})
	// Overlong (non-minimal) varints: a zero first stats field spelled in
	// two bytes, and a zero rules length likewise. Accepting either would
	// break the re-encode identity.
	f.Add(append([]byte{'F', 'L', Version, kindProgress, 0, 0, 0, 11}, "\x80\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"...))
	f.Add(appendFrame(nil, kindRegister, []byte{0x80, 0x00, 0x00}))
	f.Add([]byte("FL garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, rest, err := decodeFrame(data)
		if err != nil {
			return
		}
		if got := appendFrame(nil, kind, body); !bytes.Equal(got, data[:len(data)-len(rest)]) {
			t.Fatalf("frame re-encode differs: %x vs %x", got, data)
		}
		switch kind {
		case kindRegister:
			if m, err := decodeRegister(body); err == nil {
				roundTrip(t, body, encodeRegister(m))
			}
		case kindRegistered:
			if m, err := decodeRegistered(body); err == nil {
				roundTrip(t, body, encodeRegistered(m))
			}
		case kindSubmit:
			if m, err := decodeSubmit(body); err == nil {
				roundTrip(t, body, encodeSubmit(m))
			}
		case kindProgress:
			if s, err := decodeProgress(body); err == nil {
				roundTrip(t, body, encodeProgress(s))
			}
		case kindResult:
			if m, err := decodeResult(body); err == nil {
				roundTrip(t, body, encodeResult(m))
			}
		case kindError:
			if m, err := decodeError(body); err == nil {
				roundTrip(t, body, encodeError(m))
			}
		}
	})
}

func roundTrip(t *testing.T, body, re []byte) {
	t.Helper()
	if !bytes.Equal(body, re) {
		t.Fatalf("message re-encode differs:\n in: %x\nout: %x", body, re)
	}
}
