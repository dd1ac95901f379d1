//go:build !race

package mapper

import (
	"context"
	"testing"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/budget"
)

// TestAllocationBounds: formulation and seeded sequential auto-II
// ladders stay within fixed allocation counts per call. Allocation
// counts are deterministic for these inputs, so the bounds hold on any
// machine; each is 1.25x the count recorded when the bound was set
// (rounded down). Twin pairs must keep the order they exist to show:
// stamping from a warm template allocates less than formulating from
// scratch, and so does a ladder run through a warm artifact cache. The
// file is compiled out of -race builds; CI enforces the bounds in a
// step without the detector.
func TestAllocationBounds(t *testing.T) {
	formulation := mustGridMRRG(t, arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2})
	build := func(kernel string, opts Options) func(t *testing.T) {
		g := bench.MustGet(kernel)
		return func(t *testing.T) {
			m, reason, err := BuildModel(g, formulation, opts)
			if err != nil {
				t.Fatal(err)
			}
			if m == nil {
				t.Fatalf("%s unexpectedly infeasible: %s", kernel, reason)
			}
		}
	}
	hetero := mustGrid(t, arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: false, Contexts: 1})
	homo3 := mustGrid(t, arch.GridSpec{Rows: 3, Cols: 3, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1})
	// ladder runs a seeded sequential auto-II sweep, which must end
	// feasible at II=2: mult_10 on the hetero grid is MII-gated at 2, and
	// mac on the homogeneous 3x3 grid must prove II=1 infeasible first.
	ladder := func(kernel string, a *arch.Arch, opts Options) func(t *testing.T) {
		g := bench.MustGet(kernel)
		opts.Workers, opts.Seed, opts.Budget = 1, 1, budget.New(1)
		return func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := MapAuto(ctx, g, a, 4, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Feasible() || res.II != 2 {
				t.Fatalf("%s: II=%d %v, want feasible at II=2", kernel, res.II, res.Status)
			}
		}
	}

	// The cached variants are warmed by AllocsPerRun's uncounted first
	// call, so they measure the steady state every later use pays.
	counts := map[string]float64{}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
		max  float64
	}{
		{"formulate/2x2-f", build("2x2-f", Options{}), 172},
		{"formulate/accum", build("accum", Options{}), 183},
		{"formulate/extreme", build("extreme", Options{}), 261},
		{"formulate/template", build("accum", Options{Artifacts: NewArtifactCache(4)}), 102},
		{"mapauto/scratch", ladder("mult_10", hetero, Options{Symmetry: SymmetryOff}), 16492},
		{"mapauto/sym", ladder("mac", homo3, Options{Symmetry: SymmetryOn}), 18960},
		{"mapauto/nosym", ladder("mac", homo3, Options{Symmetry: SymmetryOff}), 15887},
		{"mapauto/cached", ladder("mult_10", hetero, Options{Symmetry: SymmetryOff, Artifacts: NewArtifactCache(8)}), 12783},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := testing.AllocsPerRun(1, func() { tc.run(t) })
			t.Logf("%v allocations (bound %v)", got, tc.max)
			if got > tc.max {
				t.Errorf("%v allocations, want at most %v", got, tc.max)
			}
			counts[tc.name] = got
		})
	}

	// formulate/accum is the scratch twin of formulate/template (the
	// series was once also recorded as formulate/scratch).
	for _, twin := range [][2]string{
		{"formulate/template", "formulate/accum"},
		{"mapauto/cached", "mapauto/scratch"},
	} {
		less, more := counts[twin[0]], counts[twin[1]]
		if less == 0 || more == 0 {
			continue // a subtest failed or was filtered out
		}
		if less >= more {
			t.Errorf("%s makes %v allocations, %s %v; want fewer", twin[0], less, twin[1], more)
		}
	}
}

func mustGrid(t *testing.T, spec arch.GridSpec) *arch.Arch {
	t.Helper()
	a, err := arch.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
