package runtime

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/parser"
)

// A fleet of chase jobs whose options share one compiler must pay Σ's
// compilation once — exactly one job misses, every other job hits — and
// produce results byte-identical to an uncached fleet.
func TestPoolSharedCompiler(t *testing.T) {
	sigma := parser.MustParseRules(`
		e(X, Y) -> ∃Z m(Y, Z).
		m(X, Z) -> p(X).
	`)
	db := parser.MustParseDatabase(`e(a, b). e(b, c). e(c, a).`)
	const jobs = 8

	runFleet := func(comp chase.Compiler) []*chase.Result {
		fleet := make([]Job, jobs)
		for j := range fleet {
			fleet[j] = ChaseJob(fmt.Sprintf("job-%d", j), db, sigma, chase.Options{Compile: comp})
		}
		out := make([]*chase.Result, jobs)
		for i, r := range runFleet(t, context.Background(), 2, fleet) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Name, r.Err)
			}
			out[i] = r.Value.(*chase.Result)
		}
		return out
	}

	cache := compile.NewCache(4)
	cached := runFleet(cache)
	plain := runFleet(nil)

	hits, misses := 0, 0
	for i := range cached {
		hits += cached[i].Stats.CompileHits
		misses += cached[i].Stats.CompileMisses
		if got, want := cached[i].Instance.CanonicalKey(), plain[i].Instance.CanonicalKey(); got != want {
			t.Fatalf("job %d: cached instance differs from uncached", i)
		}
		cs, ps := cached[i].Stats, plain[i].Stats
		cs.CompileHits, cs.CompileMisses = 0, 0
		if cs != ps {
			t.Fatalf("job %d: cached stats %+v differ from uncached %+v", i, cs, ps)
		}
	}
	if misses != 1 || hits != jobs-1 {
		t.Fatalf("fleet compile stats: %d misses / %d hits, want 1 / %d", misses, hits, jobs-1)
	}
	if plain[0].Stats.CompileHits != 0 || plain[0].Stats.CompileMisses != 0 {
		t.Fatal("uncached fleet must not report compile fetches")
	}
}
