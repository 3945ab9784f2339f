package logic

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// matchBodies are the bodies of the random matcher harness: a single atom,
// a 2-atom join, the 3-atom e,p,e join, and the repeated-variable
// e(X,X),p(X) body.
func matchBodies() [][]*Atom {
	x, y, z := Variable("X"), Variable("Y"), Variable("Z")
	return [][]*Atom{
		{MakeAtom("e", x, y)},
		{MakeAtom("e", x, y), MakeAtom("e", y, z)},
		{MakeAtom("e", x, y), MakeAtom("p", y), MakeAtom("e", y, z)},
		{MakeAtom("e", x, x), MakeAtom("p", x)},
	}
}

// randomMatchInstance builds 20–79 random e/p atoms over eight constants.
func randomMatchInstance(rng *rand.Rand) *Instance {
	in := NewInstance()
	total := 20 + rng.Intn(60)
	for i := 0; i < total; i++ {
		a := Constant(string(rune('a' + rng.Intn(8))))
		b := Constant(string(rune('a' + rng.Intn(8))))
		if rng.Intn(3) == 0 {
			in.Add(MakeAtom("p", a))
		} else {
			in.Add(MakeAtom("e", a, b))
		}
	}
	return in
}

// MatchShardProg must partition MatchAllProgs' enumeration: concatenating
// the shards by (seed, window) has to reproduce the exact yield order, for
// any window partition of the delta. One Matcher serves every call and
// runs a full enumeration between program runs, so a fresh compile must
// also leave the installed programs untouched.
func TestMatchShardProgPartitionsMatchAllProgs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	bodies := matchBodies()
	var mm Matcher
	progs := make([][]*BodyProgram, len(bodies))
	for bi, body := range bodies {
		progs[bi] = mm.CompileBody(body)
	}
	render := func(m *Match) string { return m.Substitution().String() }
	for trial := 0; trial < 30; trial++ {
		in := randomMatchInstance(rng)
		deltaStart := rng.Intn(in.Len())
		for bi, body := range bodies {
			var want []string
			mm.MatchAllProgs(progs[bi], in, deltaStart, func(m *Match) bool {
				want = append(want, render(m))
				return true
			})
			full, ref := 0, 0
			mm.MatchAllExt(body, in, func(*Match) bool { full++; return true })
			MatchAll(body, in, func(Substitution) bool { ref++; return true })
			if full != ref {
				t.Fatalf("trial %d body %v: full enumeration after a program run found %d matches, want %d",
					trial, body, full, ref)
			}
			// Concatenate shards: for each seed, random windows over the delta.
			var got []string
			for _, prog := range progs[bi] {
				lo := deltaStart
				for lo < in.Len() {
					hi := lo + 1 + rng.Intn(in.Len()-lo)
					if rng.Intn(4) == 0 {
						hi = maxSeq // occasionally an open window
					}
					mm.MatchShardProg(prog, in, deltaStart, lo, hi, func(m *Match) bool {
						got = append(got, render(m))
						return true
					})
					if hi == maxSeq {
						break
					}
					lo = hi
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d body %v: shards yield %d matches, MatchAllProgs %d",
					trial, body, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d body %v: match %d differs: shard order %q, unsharded order %q",
						trial, body, i, got[i], want[i])
				}
			}
		}
	}
}

// Early yield-stop through a program must not poison a later full
// enumeration on the same matcher, and vice versa.
func TestBodyProgramEarlyStopAndReuse(t *testing.T) {
	x, y := Variable("X"), Variable("Y")
	body := []*Atom{MakeAtom("e", x, y)}
	in := NewInstance()
	for _, c := range "abcd" {
		in.Add(MakeAtom("e", Constant(string(c)), Constant("t")))
	}
	var mm Matcher
	prog := mm.CompileBody(body)[0]
	n := 0
	if mm.MatchShardProg(prog, in, 0, 0, maxSeq, func(*Match) bool { n++; return false }) {
		t.Fatal("early stop must report false")
	}
	if n != 1 {
		t.Fatalf("expected 1 yield before stop, got %d", n)
	}
	count := 0
	mm.MatchAllExt(body, in, func(*Match) bool { count++; return true })
	if count != 4 {
		t.Fatalf("full enumeration after program run found %d matches, want 4", count)
	}
	// The program itself must be untouched by the interleaved compile.
	count = 0
	mm.MatchShardProg(prog, in, 0, 0, maxSeq, func(*Match) bool { count++; return true })
	if count != 4 {
		t.Fatalf("program rerun found %d matches, want 4", count)
	}
}

// Programs are shared read-only across goroutines: matchers on several
// goroutines install the same programs at once, as the parallel chase
// collector's workers do, and each must see exactly the sequential
// enumeration.
func TestBodyProgramConcurrentShards(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	bodies := matchBodies()
	in := randomMatchInstance(rng)
	deltaStart := in.Len() / 3
	render := func(m *Match) string { return m.Substitution().String() }
	progs := make([][]*BodyProgram, len(bodies))
	want := make([][]string, len(bodies))
	var mm Matcher
	for bi, body := range bodies {
		progs[bi] = mm.CompileBody(body)
		mm.MatchAllProgs(progs[bi], in, deltaStart, func(m *Match) bool {
			want[bi] = append(want[bi], render(m))
			return true
		})
	}
	const goroutines = 4
	errs := make(chan string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(width int) {
			defer wg.Done()
			var mm Matcher
			for bi := range bodies {
				var got []string
				for _, prog := range progs[bi] {
					for lo := deltaStart; lo < in.Len(); lo += width {
						mm.MatchShardProg(prog, in, deltaStart, lo, lo+width, func(m *Match) bool {
							got = append(got, render(m))
							return true
						})
					}
				}
				if len(got) != len(want[bi]) {
					errs <- fmt.Sprintf("width %d body %d: %d matches, want %d", width, bi, len(got), len(want[bi]))
					return
				}
				for i := range got {
					if got[i] != want[bi][i] {
						errs <- fmt.Sprintf("width %d body %d: match %d is %q, want %q", width, bi, i, got[i], want[bi][i])
						return
					}
				}
			}
		}(g + 1)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
