package cdcl

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cgramap/internal/budget"
	"cgramap/internal/ilp"
)

// hintedModel is randomUnitModel with seeded branch priorities and phase
// hints, so that probing and hint seeding take part in the search.
func hintedModel(seed int64) *ilp.Model {
	m := randomUnitModel(seed)
	rng := rand.New(rand.NewSource(^seed))
	for v := 0; v < m.NumVars(); v++ {
		if rng.Intn(2) == 0 {
			m.SetBranchPriority(ilp.Var(v), 1+rng.Intn(3))
		}
		m.SetPhaseHint(ilp.Var(v), rng.Intn(3) == 0)
	}
	return m
}

// TestEngineTrajectoryPinned pins the one-lane engine's search trajectory:
// a digest of status, objective, assignment and every counter over fixed
// models, unseeded and seeded. Moving it changes which instances a fixed
// budget decides, so update the digest only for an intended change to
// the search itself.
func TestEngineTrajectoryPinned(t *testing.T) {
	const want = "343ffda00dddd1d8b01bdfda6d8086b62a21f41ed8bd21d961daddb9ff49d9d5"
	h := sha256.New()
	record := func(sol *ilp.Solution, err error) {
		if err != nil {
			fmt.Fprintf(h, "error %v\n", err)
			return
		}
		keys := make([]string, 0, len(sol.Stats))
		for k := range sol.Stats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(h, "%v %d %v", sol.Status, sol.Objective, sol.Assignment)
		for _, k := range keys {
			fmt.Fprintf(h, " %s=%d", k, sol.Stats[k])
		}
		fmt.Fprintln(h)
	}
	ctx := context.Background()
	for seed := int64(0); seed < 150; seed++ {
		for _, m := range []*ilp.Model{randomUnitModel(seed), hintedModel(seed)} {
			record(New().Solve(ctx, m))
			record((&Engine{Seed: seed + 1}).Solve(ctx, m))
		}
	}
	for n := 3; n <= 6; n++ {
		m := buildPigeonhole(n)
		for v := 0; v < m.NumVars(); v += 2 {
			m.SetBranchPriority(ilp.Var(v), 1)
		}
		record(New().Solve(ctx, m))
		record((&Engine{Seed: int64(n)}).Solve(ctx, m))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("scratch trajectory digest = %s, want %s", got, want)
	}
}

// TestFrontEndsAgree: a one-lane engine and a three-lane clause-sharing
// gang agree on status and optimal objective.
func TestFrontEndsAgree(t *testing.T) {
	ctx := context.Background()
	gangs := budget.New(8)
	for seed := int64(0); seed < 150; seed++ {
		m := hintedModel(seed)
		want, err := New().Solve(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		par := &Engine{Workers: 3, Seed: seed, Budget: gangs}
		got, err := par.Solve(ctx, m)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Status != want.Status || got.Objective != want.Objective {
			t.Errorf("seed %d gang: %v/%d, engine %v/%d", seed,
				got.Status, got.Objective, want.Status, want.Objective)
		}
		if got.Assignment != nil {
			if err := m.Check(got.Assignment); err != nil {
				t.Errorf("seed %d gang: %v", seed, err)
			}
		}
	}
}
