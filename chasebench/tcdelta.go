package main

import (
	"fmt"
	"math/rand"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/service"
	"repro/internal/wire"
)

// tcProgram is the transitive closure of BENCH_resume.json plus one
// existential rule, so checkpoints carry nulls.
const tcProgram = `
	e(X, Y), e(Y, Z) -> e(X, Z).
	e(X, Y) -> ∃W m(Y, W).
`

// deltasPerChain is the number of delta requests between two full chases:
// every 8th request of a client re-roots its checkpoint chain.
const deltasPerChain = 7

// tcDelta is incremental serving: each client holds a checkpoint chain.
// A chain starts with a full chase (Checkpoint set) of a path graph, and
// each of the next seven requests resumes the previous checkpoint over a
// wire delta of new edges (Chain set). Every answer is compared with a
// full re-chase of the same base data, computed in set-up.
type tcDelta struct {
	sz   sizes
	seed int64

	fp     compile.Fingerprint
	chains []tcChain
	svc    *service.Service
	state  [clients]tcClient
}

// tcChain is one chain's inputs: refs[j] is the full re-chase of the base
// plus the first j deltas, and blobs[j] extends the instance of refs[j] by
// the (j+1)-th delta.
type tcChain struct {
	base  *logic.Instance
	blobs [][]byte
	refs  []tcRef
}

type tcRef struct {
	key   uint64 // nullBlindKey
	atoms int
}

type tcClient struct {
	chain, step int
	artifact    []byte
}

func newTCDelta(sz sizes, seed int64) workload { return &tcDelta{sz: sz, seed: seed} }

// tcInputs draws the chains: a path over n nodes, then deltas of k edges,
// each from a node already in the graph to a fresh node.
func tcInputs(sz sizes, seed int64) (bases []*logic.Instance, deltas [][][]*logic.Atom) {
	rng := rand.New(rand.NewSource(seed))
	for ch := 0; ch < sz.tcEpochs; ch++ {
		base := logic.NewInstance()
		nodes := make([]logic.Constant, sz.tcNodes)
		for i := range nodes {
			nodes[i] = logic.Constant(fmt.Sprintf("n%d", i))
		}
		for i := 0; i+1 < len(nodes); i++ {
			base.Add(logic.MakeAtom("e", nodes[i], nodes[i+1]))
		}
		var ds [][]*logic.Atom
		for j := 0; j < deltasPerChain; j++ {
			var d []*logic.Atom
			for i := 0; i < sz.tcEdges; i++ {
				from := nodes[rng.Intn(len(nodes))]
				to := logic.Constant(fmt.Sprintf("f%d_%d", j, i))
				d = append(d, logic.MakeAtom("e", from, to))
				nodes = append(nodes, to)
			}
			ds = append(ds, d)
		}
		bases = append(bases, base)
		deltas = append(deltas, ds)
	}
	return bases, deltas
}

func (w *tcDelta) setup() error {
	sigma := parser.MustParseRules(tcProgram)
	bases, deltas := tcInputs(w.sz, w.seed)
	w.chains = make([]tcChain, len(bases))
	parallel(len(bases), func(ch int) {
		c := tcChain{base: bases[ch]}
		db := bases[ch].Clone()
		prev := chase.Run(db, sigma, chase.Options{})
		c.refs = append(c.refs, tcRef{key: nullBlindKey(prev.Instance), atoms: prev.Instance.Len()})
		for _, d := range deltas[ch] {
			grown := prev.Instance.Clone()
			grown.AddAll(d)
			c.blobs = append(c.blobs, wire.EncodeDelta(grown, prev.Instance.Len()))
			db.AddAll(d)
			prev = chase.Run(db, sigma, chase.Options{})
			c.refs = append(c.refs, tcRef{key: nullBlindKey(prev.Instance), atoms: prev.Instance.Len()})
		}
		w.chains[ch] = c
	})
	w.svc = service.New(service.Config{Workers: 2, Cache: compile.NewCache(0)})
	h, err := w.svc.RegisterOntology(sigma)
	if err != nil {
		return err
	}
	w.fp = h.Fingerprint
	for c := range w.state {
		w.state[c].chain = c
	}
	// Warm-up: one whole chain per client.
	for c := 0; c < clients; c++ {
		for s := 0; s <= deltasPerChain; s++ {
			if r := w.request(c, nil); r[0].err != nil {
				return fmt.Errorf("warm-up: %w", r[0].err)
			}
		}
	}
	return nil
}

func (w *tcDelta) request(c int, tr *tracer) []opResult {
	st := &w.state[c]
	ch := &w.chains[st.chain]
	req := tr.request()
	var s served
	var artifact []byte
	encode := func(tk *service.Ticket, parent int64) (err error) {
		tr.timed("service.encode_checkpoint", parent, req, func() { artifact, err = tk.EncodeCheckpoint() })
		return err
	}
	if st.step == 0 {
		s = serveThen(tr, req, opChase, func() (*service.Ticket, error) {
			return w.svc.SubmitChase(bg, service.ChaseRequest{Database: service.Payload{Instance: ch.base},
				Ontology: service.ByFingerprint(w.fp), Variant: chase.SemiOblivious, Checkpoint: true})
		}, encode)
	} else {
		s = serveThen(tr, req, opDelta, func() (*service.Ticket, error) {
			return w.svc.SubmitDelta(bg, service.DeltaRequest{Checkpoint: st.artifact,
				Deltas: [][]byte{ch.blobs[st.step-1]}, Chain: true})
		}, encode)
	}
	if s.err == nil {
		ref := ch.refs[st.step]
		in := s.res.Chase.Instance
		s.atoms = in.Len()
		switch {
		case !s.res.Chase.Terminated:
			s.err = fmt.Errorf("step %d did not terminate", st.step)
		case in.Len() != ref.atoms || nullBlindKey(in) != ref.key:
			s.err = fmt.Errorf("step %d: %d atoms differ from the %d-atom full re-chase", st.step, in.Len(), ref.atoms)
		}
	}
	st.step++
	st.artifact = artifact
	if s.err != nil || st.step == len(ch.refs) {
		// Re-root: the client's next request is a full chase of its next
		// chain.
		st.step, st.artifact = 0, nil
		st.chain = (st.chain + clients) % len(w.chains)
	}
	return []opResult{s.opResult}
}

func (w *tcDelta) counters() stackCounters { return stackCounters{cache: w.svc.Cache().Stats()} }

func (w *tcDelta) close() {
	if w.svc != nil {
		w.svc.Close()
	}
}
