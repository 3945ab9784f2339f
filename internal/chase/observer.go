package chase

// Observer is the engine's only round-boundary callback: a passive
// listener invoked at every round barrier and once at run end. Serving
// layers stream progress, meter rounds and derived atoms, record learned
// bounds, and take per-round trace spans through it without the engine
// knowing anything about them — internal/runtime adapts an Observer onto
// its ticket streams and internal/telemetry.
//
// Contract: both methods are called inline from the engine goroutine
// (never concurrently), between one round's apply phase and the next
// round's collection, so an observer that blocks stalls the run. Direct
// console diagnostics (chtrm's -stream probe) accept that; the streaming
// scheduler decouples its consumers through per-job latest-wins channels
// so a slow consumer throttles nothing. An observer must not mutate
// anything the run depends on: observation never reorders the chase, and
// every byte-identity suite runs unchanged with and without one. The nil
// Observer is the fast path: a disabled run pays one nil check per round
// and nothing else.
type Observer interface {
	// ObserveRound is invoked at every round boundary — after the round's
	// apply phase, the final round included — with the run's statistics
	// so far.
	ObserveRound(Stats)
	// ObserveDone is invoked exactly once, after the final round (or the
	// budget/interrupt stop), with the run's final statistics and whether
	// a fixpoint was reached.
	ObserveDone(Stats, bool)
}

// RoundFunc is the Observer of callers that only want rounds: it is
// called at every round boundary, and its ObserveDone does nothing.
type RoundFunc func(Stats)

// ObserveRound calls f.
func (f RoundFunc) ObserveRound(s Stats) { f(s) }

// ObserveDone does nothing.
func (RoundFunc) ObserveDone(Stats, bool) {}

// MultiObserver fans one run's observations out to several observers in
// order. Nil entries are skipped; a nil or empty list yields nil (the
// disabled fast path), and a single live observer is returned as is.
func MultiObserver(obs ...Observer) Observer {
	n, last := 0, Observer(nil)
	for _, o := range obs {
		if o != nil {
			n, last = n+1, o
		}
	}
	if n <= 1 {
		return last
	}
	live := make(multiObserver, 0, n)
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	return live
}

type multiObserver []Observer

func (m multiObserver) ObserveRound(s Stats) {
	for _, o := range m {
		o.ObserveRound(s)
	}
}

func (m multiObserver) ObserveDone(s Stats, terminated bool) {
	for _, o := range m {
		o.ObserveDone(s, terminated)
	}
}
