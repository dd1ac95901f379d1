package service

import (
	"context"
	"testing"

	"cgramap/internal/anneal"
	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/solve/bb"
	"cgramap/internal/solve/cdcl"
)

// TestUnifiedCancellationSemantics pins the contract every job engine
// relies on: under a cancelled context, cdcl, branch-and-bound and the
// annealer all return Status Unknown with a "cancelled" stat — never an
// error, never a bogus proof, so a cancelled job is never cached.
func TestUnifiedCancellationSemantics(t *testing.T) {
	g := bench.MustGet("2x2-f")
	a, err := arch.Grid(arch.GridSpec{Rows: 2, Cols: 2, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := mrrg.Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	model, reason, err := mapper.BuildModel(g, mg, mapper.Options{})
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	if model == nil {
		t.Fatalf("instance unexpectedly infeasible at build time: %s", reason)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		engine string
		solve  func() (ilp.Status, map[string]int64, error)
	}{
		{"cdcl", func() (ilp.Status, map[string]int64, error) {
			sol, err := cdcl.New().Solve(ctx, model)
			if err != nil {
				return 0, nil, err
			}
			return sol.Status, sol.Stats, nil
		}},
		{"bb", func() (ilp.Status, map[string]int64, error) {
			sol, err := bb.New().Solve(ctx, model)
			if err != nil {
				return 0, nil, err
			}
			return sol.Status, sol.Stats, nil
		}},
		{"anneal", func() (ilp.Status, map[string]int64, error) {
			res, err := anneal.Map(ctx, g, mg, anneal.Options{})
			if err != nil {
				return 0, nil, err
			}
			return res.Status, res.Stats, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.engine, func(t *testing.T) {
			status, stats, err := tc.solve()
			if err != nil {
				t.Fatalf("cancelled solve returned error: %v", err)
			}
			if status != ilp.Unknown {
				t.Errorf("status = %v, want Unknown", status)
			}
			if stats["cancelled"] != 1 {
				t.Errorf(`stats["cancelled"] = %d, want 1 (stats: %v)`, stats["cancelled"], stats)
			}
		})
	}
}
