package guarded

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/families"
	"repro/internal/logic"
	"repro/internal/parser"
)

var update = flag.Bool("update", false, "rewrite the linearization goldens instead of comparing")

// linearizeGoldenSeeds are the generator seeds of the linearization
// goldens: random guarded Σ (default configuration) over ~200-fact
// databases drawn from a small constant pool, so that facts share terms
// and types carry side atoms.
const linearizeGoldenSeeds = 20

func linearizeGoldenCase(seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	sigma := families.RandomGuarded(rng, families.DefaultRandomConfig())
	for sigma.Len() == 0 {
		sigma = families.RandomGuarded(rng, families.DefaultRandomConfig())
	}
	db := families.RandomDatabase(rng, sigma, 200, 40)
	l, err := NewLinearizer(sigma)
	if err != nil {
		return "", err
	}
	linDB, linSigma, err := l.Linearize(db)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%% sigma\n")
	if err := parser.FormatRules(&b, sigma); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%% types: %d\n", l.TypeCount())
	// Every type predicate in order of first mention, with its type.
	seen := map[logic.Predicate]bool{}
	mention := func(p logic.Predicate) {
		if info, ok := l.Info(p); ok && !seen[p] {
			seen[p] = true
			fmt.Fprintf(&b, "%s = %s\n", p.Name, info.Type)
		}
	}
	for _, a := range linDB.Atoms() {
		mention(a.Pred)
	}
	for _, r := range linSigma.TGDs {
		for _, a := range r.Body {
			mention(a.Pred)
		}
		for _, a := range r.Head {
			mention(a.Pred)
		}
	}
	fmt.Fprintf(&b, "%% lin(D): %d atoms, insertion order\n", linDB.Len())
	for _, a := range linDB.Atoms() {
		b.WriteString(a.String() + "\n")
	}
	fmt.Fprintf(&b, "%% lin(Σ): %d rules\n", linSigma.Len())
	if err := parser.FormatRules(&b, linSigma); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Byte identity of linearization: lin(D) in insertion order, lin(Σ) as
// formatted rules, the type count and every mentioned type must match the
// recorded goldens exactly (type predicate names encode the order in which
// types were discovered, so any change to discovery order shows up too).
// Regenerate with: go test ./internal/guarded -run TestLinearizeGolden -update
func TestLinearizeGolden(t *testing.T) {
	for seed := int64(1); seed <= linearizeGoldenSeeds; seed++ {
		name := fmt.Sprintf("linearize-seed%02d.golden", seed)
		t.Run(name, func(t *testing.T) {
			got, err := linearizeGoldenCase(seed)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if got != string(want) {
				t.Fatalf("linearization differs from %s:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
