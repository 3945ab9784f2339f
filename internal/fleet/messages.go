package fleet

import (
	"fmt"
	"math"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/wire"
)

// registerMsg ships Σ to a cold worker as dlgp text — the same
// canonical rendering parser.FormatRules pins with a parse→format
// fixpoint, so registering the shipped text reproduces the fingerprint
// of the original set. Bounds piggybacks the ontology's learned
// termination bounds (qos.EncodeBounds blob, empty when none were
// profiled) so a cold worker can serve bounded-mode jobs without its
// own reference run.
type registerMsg struct {
	Rules  string
	Bounds []byte
}

// registeredMsg acks a Register with the fingerprint the worker
// computed over the received clauses.
type registeredMsg struct {
	Fingerprint compile.Fingerprint
}

// resultMsg is a finished job: the materialized instance as a wire
// snapshot, the engine statistics, and — when the job recorded its
// derivation — the deterministic derivation rendering, which the
// coordinator side compares byte-for-byte against in-process runs.
// Source names the budget that stopped a truncated run (meaningful
// only when Terminated is false), so the coordinator's truncation
// marker matches the in-process one byte for byte.
type resultMsg struct {
	Terminated bool
	Stats      chase.Stats
	Source     qos.Source
	Snapshot   []byte
	Derivation string
}

// errorMsg is a typed failure: the service taxonomy name as the code
// (ErrorKind.String / ParseErrorKind) plus the rendered cause.
type errorMsg struct {
	Code    string
	Message string
}

// Submit flag bits.
const (
	flagRecordDerivation = 1 << iota
	flagTrackForest
	flagNoSemiNaive
	flagWantProgress
	flagLearnBound
)

// Result flag bits.
const flagTerminated = 1

// writeStats writes the full chase.Stats in field order.
func writeStats(w *wire.Writer, s chase.Stats) {
	for _, v := range statsFields(&s) {
		w.Uvarint(uint64(*v))
	}
}

// readStats reads what writeStats wrote.
func readStats(r *wire.Reader) (chase.Stats, error) {
	var s chase.Stats
	for _, f := range statsFields(&s) {
		v, err := r.Count("stats field")
		if err != nil {
			return s, err
		}
		*f = v
	}
	return s, nil
}

// statsFields enumerates the Stats fields in their one wire order.
func statsFields(s *chase.Stats) [10]*int {
	return [10]*int{
		&s.InitialAtoms, &s.Atoms, &s.Rounds,
		&s.TriggersConsidered, &s.TriggersFired,
		&s.Nulls, &s.MaxDepth,
		&s.CompileHits, &s.CompileMisses, &s.ArenaBlocks,
	}
}

// readFingerprint reads a raw fingerprint.
func readFingerprint(r *wire.Reader) (compile.Fingerprint, error) {
	var fp compile.Fingerprint
	b, err := r.Raw(len(fp), "fingerprint")
	copy(fp[:], b)
	return fp, err
}

func encodeRegister(m registerMsg) []byte {
	w := &wire.Writer{}
	w.Str(m.Rules)
	w.Blob(m.Bounds)
	return w.Buf
}

func decodeRegister(body []byte) (registerMsg, error) {
	r := wire.NewReader(body, ErrFrame)
	var m registerMsg
	var err error
	if m.Rules, err = r.Str("rules"); err != nil {
		return registerMsg{}, err
	}
	if m.Bounds, err = r.Blob("bounds"); err != nil {
		return registerMsg{}, err
	}
	if len(m.Bounds) == 0 {
		m.Bounds = nil
	}
	return m, r.Done()
}

func encodeRegistered(m registeredMsg) []byte {
	w := &wire.Writer{}
	w.Raw(m.Fingerprint[:])
	return w.Buf
}

func decodeRegistered(body []byte) (registeredMsg, error) {
	r := wire.NewReader(body, ErrFrame)
	fp, err := readFingerprint(&r)
	if err != nil {
		return registeredMsg{}, err
	}
	return registeredMsg{Fingerprint: fp}, r.Done()
}

// encodeSubmit writes the at-rest part of a job. A non-nil Progress sets
// the want-progress flag: the worker then streams Progress frames before
// the Result.
func encodeSubmit(j Job) []byte {
	w := &wire.Writer{}
	w.Str(j.Name)
	w.Str(j.Tenant)
	w.Varint(int64(j.Priority))
	w.Raw(j.Fingerprint[:])
	w.Byte(byte(j.Variant))
	w.Uvarint(uint64(j.MaxAtoms))
	w.Uvarint(uint64(j.MaxRounds))
	w.Uvarint(uint64(j.Workers))
	w.Byte(byte(j.QoS.Mode))
	w.Uvarint(uint64(j.QoS.Deadline))
	w.Uvarint(uint64(j.QoS.Rounds))
	var flags byte
	if j.QoS.Learn {
		flags |= flagLearnBound
	}
	if j.RecordDerivation {
		flags |= flagRecordDerivation
	}
	if j.TrackForest {
		flags |= flagTrackForest
	}
	if j.NoSemiNaive {
		flags |= flagNoSemiNaive
	}
	if j.Progress != nil {
		flags |= flagWantProgress
	}
	w.Byte(flags)
	w.Blob(j.Snapshot)
	w.Uvarint(uint64(len(j.Deltas)))
	for _, d := range j.Deltas {
		w.Blob(d)
	}
	return w.Buf
}

// wantProgress is the Progress of a decoded job whose sender asked for
// Progress frames: the worker streams them itself, and the non-nil
// marker re-encodes to the same flag.
func wantProgress(chase.Stats) {}

func decodeSubmit(body []byte) (Job, error) {
	r := wire.NewReader(body, ErrFrame)
	var j Job
	var err error
	if j.Name, err = r.Str("name"); err != nil {
		return j, err
	}
	if j.Tenant, err = r.Str("tenant"); err != nil {
		return j, err
	}
	prio, err := r.Varint("priority")
	if err != nil {
		return j, err
	}
	if prio < math.MinInt32 || prio > math.MaxInt32 {
		return j, fmt.Errorf("%w: priority %d out of range", ErrFrame, prio)
	}
	j.Priority = service.Priority(prio)
	if j.Fingerprint, err = readFingerprint(&r); err != nil {
		return j, err
	}
	variant, err := r.Byte("variant")
	if err != nil {
		return j, err
	}
	switch chase.Variant(variant) {
	case chase.SemiOblivious, chase.Oblivious, chase.Restricted:
		j.Variant = chase.Variant(variant)
	default:
		return j, fmt.Errorf("%w: unknown chase variant %d", ErrFrame, variant)
	}
	if j.MaxAtoms, err = r.Count("maxAtoms"); err != nil {
		return j, err
	}
	if j.MaxRounds, err = r.Count("maxRounds"); err != nil {
		return j, err
	}
	if j.Workers, err = r.Count("workers"); err != nil {
		return j, err
	}
	mode, err := r.Byte("qos mode")
	if err != nil {
		return j, err
	}
	if mode > byte(qos.Anytime) {
		return j, fmt.Errorf("%w: unknown QoS mode %d", ErrFrame, mode)
	}
	j.QoS.Mode = qos.Mode(mode)
	deadline, err := r.Uvarint("qos deadline")
	if err != nil {
		return j, err
	}
	if deadline > math.MaxInt64 {
		return j, fmt.Errorf("%w: QoS deadline %d out of range", ErrFrame, deadline)
	}
	j.QoS.Deadline = time.Duration(deadline)
	if j.QoS.Rounds, err = r.Count("qos rounds"); err != nil {
		return j, err
	}
	flags, err := r.Byte("flags")
	if err != nil {
		return j, err
	}
	if flags&^(flagRecordDerivation|flagTrackForest|flagNoSemiNaive|flagWantProgress|flagLearnBound) != 0 {
		return j, fmt.Errorf("%w: unknown submit flags %#x", ErrFrame, flags)
	}
	j.QoS.Learn = flags&flagLearnBound != 0
	j.RecordDerivation = flags&flagRecordDerivation != 0
	j.TrackForest = flags&flagTrackForest != 0
	j.NoSemiNaive = flags&flagNoSemiNaive != 0
	if flags&flagWantProgress != 0 {
		j.Progress = wantProgress
	}
	if j.Snapshot, err = r.Blob("snapshot"); err != nil {
		return j, err
	}
	n, err := r.Records("delta count")
	if err != nil {
		return j, err
	}
	for i := 0; i < n; i++ {
		d, err := r.Blob("delta")
		if err != nil {
			return j, err
		}
		j.Deltas = append(j.Deltas, d)
	}
	return j, r.Done()
}

func encodeProgress(s chase.Stats) []byte {
	w := &wire.Writer{}
	writeStats(w, s)
	return w.Buf
}

func decodeProgress(body []byte) (chase.Stats, error) {
	r := wire.NewReader(body, ErrFrame)
	s, err := readStats(&r)
	if err != nil {
		return s, err
	}
	return s, r.Done()
}

func encodeResult(m resultMsg) []byte {
	w := &wire.Writer{}
	var flags byte
	if m.Terminated {
		flags |= flagTerminated
	}
	w.Byte(flags)
	w.Byte(byte(m.Source))
	writeStats(w, m.Stats)
	w.Blob(m.Snapshot)
	w.Str(m.Derivation)
	return w.Buf
}

func decodeResult(body []byte) (resultMsg, error) {
	r := wire.NewReader(body, ErrFrame)
	var m resultMsg
	flags, err := r.Byte("flags")
	if err != nil {
		return m, err
	}
	if flags&^flagTerminated != 0 {
		return m, fmt.Errorf("%w: unknown result flags %#x", ErrFrame, flags)
	}
	m.Terminated = flags&flagTerminated != 0
	source, err := r.Byte("budget source")
	if err != nil {
		return m, err
	}
	if source > byte(qos.SourceLearnedBound) {
		return m, fmt.Errorf("%w: unknown budget source %d", ErrFrame, source)
	}
	m.Source = qos.Source(source)
	if m.Stats, err = readStats(&r); err != nil {
		return m, err
	}
	if m.Snapshot, err = r.Blob("snapshot"); err != nil {
		return m, err
	}
	if m.Derivation, err = r.Str("derivation"); err != nil {
		return m, err
	}
	return m, r.Done()
}

func encodeError(m errorMsg) []byte {
	w := &wire.Writer{}
	w.Str(m.Code)
	w.Str(m.Message)
	return w.Buf
}

func decodeError(body []byte) (errorMsg, error) {
	r := wire.NewReader(body, ErrFrame)
	var m errorMsg
	var err error
	if m.Code, err = r.Str("code"); err != nil {
		return m, err
	}
	if m.Message, err = r.Str("message"); err != nil {
		return m, err
	}
	return m, r.Done()
}
