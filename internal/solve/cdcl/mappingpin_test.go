//go:build !race

package cdcl_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"cgramap/internal/solve/cdcl"
)

// TestMappingTrajectoryPinned pins the one-lane engine's search on real
// mapping models, which are mostly two-literal implications, where
// TestEngineTrajectoryPinned's random models are not: a digest of status,
// assignment and every counter, unseeded, with Seed 1, and unseeded at
// the low learnt-clause limit, each search capped at mappingConflictCap
// conflicts. Moving it changes which Table 2 cells a fixed budget
// decides, so update the digest only for an intended change to the
// search itself. The search is one deterministic lane, so the test is
// compiled out of -race builds, where it would take ten times as long
// and check nothing more.
func TestMappingTrajectoryPinned(t *testing.T) {
	const want = "82a002322078f02c24449ff6cbba424f3538a08f226a2fae0123e3bba4880b91"
	h := sha256.New()
	for _, c := range mappingCases {
		m := mappingModel(t, c)
		for _, run := range []struct {
			seed       int64
			maxLearnts int
		}{{0, 0}, {1, 0}, {0, mappingMaxLearnts}} {
			sol, err := cdcl.NewCapped(run.seed, mappingConflictCap, run.maxLearnts).Solve(context.Background(), m)
			if err != nil {
				t.Fatalf("%s %+v: %v", c, run, err)
			}
			keys := make([]string, 0, len(sol.Stats))
			for k := range sol.Stats {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(h, "%s %+v: %v %v", c, run, sol.Status, sol.Assignment)
			for _, k := range keys {
				fmt.Fprintf(h, " %s=%d", k, sol.Stats[k])
			}
			fmt.Fprintln(h)
			t.Logf("%s %+v: %v conflicts=%d propagations=%d learnts=%d", c, run, sol.Status, sol.Stats["conflicts"], sol.Stats["propagations"], sol.Stats["learnts"])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("mapping trajectory digest = %s, want %s", got, want)
	}
}
