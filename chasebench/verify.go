package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/chase"
	"repro/internal/logic"
)

// chaseRef is the expected answer of one chase input, computed in set-up by
// a direct sequential chase.Run.
type chaseRef struct {
	key        uint64 // identity hash of the result instance
	atoms      int
	stats      chase.Stats
	terminated bool
}

// orderedKey hashes the instance's atom keys in insertion order. The
// engine is deterministic and the wire codec, the service and the fleet
// preserve byte identity, so a served result must match its reference
// atom for atom; this is stricter than CanonicalKey, which ignores order.
func orderedKey(in *logic.Instance) uint64 {
	h := fnv.New64a()
	for _, a := range in.Atoms() {
		h.Write([]byte(a.Key()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// nullBlindKey hashes the sorted atom keys with every null written as
// "_". A resumed chase numbers its nulls differently from a full re-chase
// of the same data; on the tc-delta program each null is the only null of
// its atom and is determined by that atom's constant, so equal keys and
// equal sizes mean equal instances up to null renaming.
func nullBlindKey(in *logic.Instance) uint64 {
	keys := make([]string, 0, in.Len())
	var b strings.Builder
	for _, a := range in.Atoms() {
		b.Reset()
		b.WriteString(a.Pred.Name)
		for _, t := range a.Args {
			b.WriteByte(0)
			if _, ok := t.(*logic.Null); ok {
				b.WriteByte('_')
			} else {
				b.WriteString(t.Key())
			}
		}
		keys = append(keys, b.String())
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{1})
	}
	return h.Sum64()
}

func refOf(res *chase.Result) chaseRef {
	return chaseRef{key: orderedKey(res.Instance), atoms: res.Instance.Len(), stats: res.Stats, terminated: res.Terminated}
}

// checkChase compares a served chase result with its reference: outcome,
// the run's statistics (compile-cache and arena counters excluded, they
// describe the serving path, not the chase), and the instance.
func (r chaseRef) checkChase(in *logic.Instance, st chase.Stats, terminated bool) error {
	if terminated != r.terminated {
		return fmt.Errorf("terminated=%v, reference %v", terminated, r.terminated)
	}
	a, b := st, r.stats
	if a.InitialAtoms != b.InitialAtoms || a.Atoms != b.Atoms || a.Rounds != b.Rounds ||
		a.TriggersConsidered != b.TriggersConsidered || a.TriggersFired != b.TriggersFired ||
		a.Nulls != b.Nulls || a.MaxDepth != b.MaxDepth {
		return fmt.Errorf("stats %+v, reference %+v", a, b)
	}
	if in.Len() != r.atoms || orderedKey(in) != r.key {
		return fmt.Errorf("instance of %d atoms differs from the %d-atom reference", in.Len(), r.atoms)
	}
	return nil
}
