// Package repro is a from-scratch Go reproduction of "Non-Uniformly
// Terminating Chase: Size and Complexity" (Calautti, Gottlob, Pieris,
// PODS 2022): the semi-oblivious chase, the non-uniform termination
// characterizations for simple linear, linear, and guarded TGDs, the
// simplification and linearization transformations, the worst-case size
// bound families, and the Appendix A undecidability reduction.
//
// The implementation lives under internal/ (one package per subsystem;
// internal/core carries the termination deciders — the paper's primary
// contribution). Executables live under cmd/ (chase, chtrm, experiments),
// runnable scenarios under examples/, and bench_test.go in this directory
// regenerates every quantitative claim of the paper as a benchmark. See
// README.md for a tour: "Architecture" for the system inventory and
// "Paper results" for the per-experiment index.
//
// The data plane is integer-interned: internal/logic maintains a
// process-wide symbol table mapping every term and predicate to a dense
// int32 id, atoms carry their id tuple with a precomputed 64-bit hash,
// instances index by ids, and the chase keys triggers and canonical nulls
// by interned integer tuples. Strings appear only at the boundaries
// (internal/parser and rendering) and as the cross-run canonical identity
// (Instance.CanonicalKey); see the internal/logic package comment for the
// invariants.
//
// The runtime layer (internal/runtime) parallelizes the system on two
// axes. Within one chase run, each semi-naive round's trigger collection
// is sharded over the (TGD, seed body atom, delta window) task space
// across a worker pool: workers match concurrently against the frozen
// instance (the symbol table has lock-free reads, and instances support
// concurrent read-only access between rounds), emit candidate triggers
// into per-task buffers, and the engine merges the buffers back in task
// order — which equals the sequential enumeration order — before the
// single-goroutine apply phase. Rounds are thus the barrier between the
// read-only parallel phase and the mutating sequential phase, and a
// parallel run is byte-identical (CanonicalKey, stats, forest,
// derivation) to the sequential engine for all three chase variants.
// Across runs, a streaming Scheduler serves fleets of independent chase
// and decision jobs — one per (D, Σ) request, experiment point, or probe
// — from a long-lived worker set behind a bounded admission queue:
// one admission path (SubmitIn) with backpressure at the bound (block or
// reject), per-job wall-clock budgets and cancellation, per-job results
// streamed over channels as jobs finish, round-level progress events from
// engine jobs (ChaseJob/ResumeJob, whose atom and round budgets ride in
// their chase.Options), and graceful Drain/Close. Gather collates a
// fleet's streamed results back into submission order, so a fleet's
// results are byte-identical to sequential chase runs at any worker count
// (property-tested in internal/runtime). Every tool takes -workers and -stream; determinism
// makes both pure performance/observability knobs.
//
// The public entry point is the service layer (internal/service): typed
// request envelopes — ChaseRequest, DecideRequest, ExperimentRequest —
// submitted to a Service and answered with typed Results (statistics,
// derivation handle, classified error taxonomy with wrap-checkable
// sentinels). The envelopes carry RequestMeta{Tenant, Priority}, which
// maps onto the scheduler's admission queue: strict priority lanes with
// round-robin per-tenant fair dequeue, so one tenant's backlog cannot
// starve another's. The service realizes the paper's fixed-Σ,
// many-databases access pattern as an API: RegisterOntology(Σ) pins Σ
// under its canonical compile fingerprint and returns the handle, and
// SubmitByFingerprint ships only fingerprint + database per job, with
// the database traveling as internal/wire's portable snapshot/delta
// encoding. The wire codec's symbol manifest (predicates and terms in
// first-occurrence order, nulls as factory id + depth, no process-local
// symbol ids) is the cross-process identity of an instance, exactly as
// CanonicalKey is its cross-run identity and the compile fingerprint is
// the ontology's: a fresh process decodes an instance on which every
// chase run is CanonicalKey- and Stats-identical to the in-process run.
// All three CLIs route through the service layer (and replay JSON
// request files via -request), so the goldens exercise the public
// submission path end to end.
//
// Across requests, internal/compile is the ontology compilation cache:
// every artifact derived from the TGD set Σ alone — the chase engine's
// per-TGD head and body programs (chase.CompiledSet), the simplification
// simple(Σ), the dependency- and predicate-graph analyses, and the
// termination UCQs — is memoized per ontology, so a fleet sharing Σ pays
// analysis once. The cache key is a canonical SHA-256 fingerprint of Σ
// (order-insensitive, α-invariant, duplicate-insensitive, stable across
// processes — the future wire-level schema identity for distributed
// sharding); within a fingerprint entry, compiled artifacts live in
// per-exact-clause-sequence views, because head programs address clauses
// by index and variables by name, and chase.Run re-verifies the match
// before trusting a served compilation. Reads are lock-free (sync.Map +
// atomic recency, in the style of logic.Symbols), entries are LRU-bounded
// with explicit invalidation, and sets are immutable by convention, so
// "mutating Σ" means building a new set — which fingerprints differently
// and misses. Cached runs are byte-identical to cold runs for all three
// chase variants (property-tested in internal/compile, fuzzed via
// FuzzFingerprint, and pinned end to end by the cmd golden tests);
// chase.Stats reports per-run cache hits and misses.
//
// Incremental re-chase (internal/checkpoint) makes a finished run a
// first-class serving artifact: Capture wraps a chase that ran with
// Options.Checkpoint into a Checkpoint (instance + fired-trigger set +
// null high-water mark + semi-naive delta window), Encode serializes it
// portably (an embedded wire snapshot plus a fired-key term manifest in
// the wire codec's tag vocabulary, sealed by a checksum; Decode is
// bounds-checked and fuzzed — hostile bytes fail typed, never panic),
// and Resume continues the semi-naive iteration with new base atoms
// landing in the resumed round's delta window, so only the delta's
// consequences are derived. The artifact carries the ontology's compile
// fingerprint (service.DeltaRequest resolves Σ through the registry by
// it when none is attached) and an exact clause-sequence digest (fired
// keys embed clause positions, so a resume demands Σ verbatim —
// checkpoint.ErrMismatch otherwise). A differential harness pins resume
// ≡ full re-chase across every example scenario, variant, and worker
// count, with checkpoints cut at every intermediate round; the CLI
// surface is chase -checkpoint/-resume, and scheduler-level resume jobs
// trace a terminal "resume" span.
//
// The distributed fleet (internal/fleet, cmd/chased) puts the service
// layer on the network: chased is a worker daemon serving a framed
// binary protocol over TCP or unix sockets (length-prefixed frames;
// Register/Submit requests, Registered/Progress/Result/Error answers;
// message bodies in the wire codec's varint vocabulary, every decoder
// bounds-checked and fuzzed), dispatching to an embedded Service. A
// Coordinator fans jobs over N workers with tenant-fair placement,
// warms cold workers through the ontology pull handshake (an unknown
// fingerprint fails typed, the coordinator ships Σ as dlgp text and
// verifies the acked fingerprint), replays exchanges across transport
// tears (a chase job is a pure function of its envelope), and folds
// remote failures back into the service error taxonomy. The three
// portable identities — compile fingerprint for Σ, wire manifest for
// instances, CanonicalKey for results — make the distribution
// invisible: a coordinator fleet over cold chased processes is
// byte-identical (key, stats, rendered derivation) to the in-process
// fleet, pinned per scenario and variant by the equivalence suites and
// by cmd/chase -fleet, whose goldens are the single-process ones.
//
// The anytime serving tier (internal/qos) turns the paper's central
// hazard — non-uniform termination: whether the chase halts depends on
// the database, not Σ alone — into a latency SLO. A learn-mode run
// profiles a reference chase and stores the observed round and atom
// counts as a LearnedBound pinned next to the compile-cache entry (per
// fingerprint and variant; it survives entry eviction and
// re-registration, and exports as a canonical varint blob the fleet
// coordinator ships to cold workers alongside the ontology pull).
// Requests carry a policy in RequestMeta.QoS: Exact is the default and
// costs nothing (CI pins the zero policy to the hot-path allocation
// baseline, BENCH_qos.json); Bounded serves under the learned bound,
// failing fast with the wrap-checkable qos.ErrNoLearnedBound when none
// was profiled; Anytime serves whatever whole rounds fit a deadline or
// an explicit round quota. Anytime truncation happens only at round
// boundaries (chase.Options.RoundGranularInterrupt), so the answer is a
// whole-round prefix — byte-identical at any worker count and across
// the fleet, like every other parallel path here. A truncated result
// names the budget that stopped it (flag, deadline, or learned-bound)
// in the CLI's "% truncated" marker, per-mode outcomes and deadline
// slack are billed to telemetry, and XP-QOS quantifies the
// completeness-vs-latency trade the tier offers.
//
// Observability (internal/telemetry) is a zero-dependency layer over the
// serving plane: an atomic metrics Registry (counters, gauges,
// fixed-bucket histograms, capped label vectors), a deterministic
// per-job TraceSink emitting JSON-line spans ordered by (job index,
// seq), and an HTTP Handler serving /healthz, /metrics (Prometheus
// text), and /metrics.json. The layers feed it through seams that keep
// the leaf packages free of telemetry imports: chase.Observer, the
// engine's one round-boundary hook, sees round boundaries (and also
// feeds ticket progress streams, learned bounds, and the CLIs' -stream
// lines), wire.Meter sees codec bytes, and a snapshot-time
// collector bridges compile.Stats. Telemetry is opt-in via
// Config.Telemetry and free when off — every instrumentation site is a
// nil check, and CI pins the disabled path's allocation profile
// (BENCH_obs.json) against the recorded hot-path baselines. The CLIs
// surface it as -stats (stderr key-value block), -metrics, and -trace;
// stdout and the goldens stay byte-identical.
package repro
