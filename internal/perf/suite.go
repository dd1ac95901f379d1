package perf

import (
	"context"
	"fmt"
	"io"
	"regexp"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/budget"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/solve/bb"
	"cgramap/internal/workload"
)

// SuiteOptions configures a suite run.
type SuiteOptions struct {
	// Label names the run (the BENCH_<label>.json convention).
	Label string
	// Short selects the reduced tier: gated series only (MRRG
	// generation and ILP formulation — the deterministic hot paths CI
	// gates on), smaller sampling budgets.
	Short bool
	// Samples per series; 0 selects 7 (5 in short mode).
	Samples int
	// MinSampleTime is the calibration floor per sample; 0 selects
	// 200ms (50ms in short mode).
	MinSampleTime time.Duration
	// Filter, when non-nil, restricts the run to matching series names.
	Filter *regexp.Regexp
	// SolveBudget bounds each iteration of the solver series; 0 selects
	// 30s.
	SolveBudget time.Duration
	// Workers sets the clause-sharing gang width of the parallel
	// mapauto series (0 selects 1 — the sequential scaling baseline).
	// The fixed-width solve-scale series ignore it.
	Workers int
}

// seriesSpec declares one suite entry. Gated series are the ones CI
// fails on; they must be deterministic enough (allocation counts,
// single-threaded construction code) for cross-run comparison.
type seriesSpec struct {
	name  string
	gated bool
	// shortTier marks the series as part of the reduced CI tier.
	shortTier bool
	setup     func(opts SuiteOptions) (op, error)
}

// formulationArch is the architecture the formulation series build
// against: the paper's 4x4 heterogeneous-capable grid with two contexts.
var formulationArch = arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2}

// suite returns the standard series set. MRRG generation and ILP
// formulation are gated (pure construction: deterministic allocations,
// stable timing); end-to-end solves are recorded for trajectory and
// engine counters but never gate, because CDCL search order makes their
// timing restart-noisy.
func suite() []seriesSpec {
	var specs []seriesSpec
	for _, gs := range []arch.GridSpec{
		{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Homogeneous: true, Contexts: 1},
		{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: false, Contexts: 2},
		{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2},
	} {
		gs := gs
		specs = append(specs, seriesSpec{
			name:      "mrrg-gen/" + gs.Name(),
			gated:     true,
			shortTier: true,
			setup: func(SuiteOptions) (op, error) {
				a, err := arch.Grid(gs)
				if err != nil {
					return nil, err
				}
				return func() (map[string]int64, error) {
					_, err := mrrg.Generate(a)
					return nil, err
				}, nil
			},
		})
	}
	for _, kernel := range []string{"2x2-f", "accum", "extreme"} {
		kernel := kernel
		specs = append(specs, seriesSpec{
			name:      "formulate/" + kernel,
			gated:     true,
			shortTier: true,
			setup: func(SuiteOptions) (op, error) {
				a, err := arch.Grid(formulationArch)
				if err != nil {
					return nil, err
				}
				mg, err := mrrg.Generate(a)
				if err != nil {
					return nil, err
				}
				g, err := bench.Get(kernel)
				if err != nil {
					return nil, err
				}
				return func() (map[string]int64, error) {
					m, reason, err := mapper.BuildModel(g, mg, mapper.Options{})
					if err != nil {
						return nil, err
					}
					if m == nil {
						return nil, fmt.Errorf("unexpectedly infeasible: %s", reason)
					}
					return nil, nil
				}, nil
			},
		})
	}
	specs = append(specs,
		// The template/scratch twin pair measures what the artifact cache
		// buys on the formulation hot path: both build the same accum
		// model on the same fabric, but formulate/template stamps it from
		// a pre-warmed cached template (the per-II cost every ladder rung
		// after the first pays) while formulate/scratch re-derives the
		// II-independent analysis every iteration. Stamped models are
		// byte-identical to scratch ones, so the pair isolates pure
		// build-cost, not answer drift.
		formulateTwinSpec("formulate/template", true),
		formulateTwinSpec("formulate/scratch", false),
		// Generated-workload series (ungated for now: fresh code paths
		// establishing a trajectory before any CI gate).
		// gen/depth8_fanout3 measures the seeded DFG generator itself.
		seriesSpec{
			name: "gen/depth8_fanout3",
			setup: func(SuiteOptions) (op, error) {
				spec := workload.DFGSpec{Seed: 1, Ops: 32, Depth: 8, MaxFanout: 3, MulDensity: 0.25, Inputs: 8, Outputs: 4}
				return func() (map[string]int64, error) {
					_, err := workload.GenerateDFG(spec)
					return nil, err
				}, nil
			},
		},
		// frontier/8x8 measures the frontier path end to end on a probe
		// the counting presolve decides instantly: fabric build + MRRG
		// generation + formulation-free infeasibility proof, with no
		// restart-noisy CDCL search in the loop.
		seriesSpec{
			name: "frontier/8x8",
			setup: func(SuiteOptions) (op, error) {
				spec := workload.FrontierSpec{
					Family: workload.Dot,
					MinN:   17, // 35 I/O ops > the 8x8's 32 I/O blocks
					MaxN:   20,
					Fabrics: []workload.FabricSpec{
						{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1},
					},
				}
				return func() (map[string]int64, error) {
					front, err := workload.RunFrontier(context.Background(), spec, workload.FrontierOptions{})
					if err != nil {
						return nil, err
					}
					b := front.Boundaries[0]
					if b.MinInfeasibleN != spec.MinN {
						return nil, fmt.Errorf("expected presolve-infeasible at n=%d, got %+v", spec.MinN, b)
					}
					return nil, nil
				}, nil
			},
		},
		solveSpec("solve-cdcl/accum", "accum",
			arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1},
			mapper.Options{}),
		// Fixed-width scaling ladder: the same instance solved by gangs
		// of 1, 2 and 4 clause-sharing workers with a private budget, so
		// one result file exhibits the intra-run scaling curve. Seeded
		// for cross-run comparability; w1 doubles as a determinism
		// anchor (it must track solve-cdcl/accum's counters).
		solveScaleSpec(1), solveScaleSpec(2), solveScaleSpec(4),
		// mapAutoSpec follows SuiteOptions.Workers, so diffing a
		// Workers=1 file against a Workers=4 file measures the
		// speculative sweep + gang speedup end to end.
		mapAutoSpec(),
		// The sequential seeded auto-II ladder: deterministic, so CI can
		// gate on its allocation profile rather than the restart-noisy
		// wall clock.
		mapAutoScratchSpec(),
		// The symmetry twin pair measures what lex-leader symmetry
		// breaking buys on a proving-dominated ladder: mac on the
		// homogeneous 3x3 grid must *prove* II=1 infeasible before
		// finding the II=2 optimum, and the infeasibility proof is where
		// collapsing the fabric's automorphism orbits pays. Sequential
		// and seeded like the other ladder twins, so the halves differ
		// only in the symmetry constraints.
		symmetryTwinSpec("mapauto/sym", mapper.SymmetryOn),
		symmetryTwinSpec("mapauto/nosym", mapper.SymmetryOff),
		// mapauto/cached is the third member of the ladder family: the
		// same sequential seeded mult_10 sweep as mapauto/scratch, but
		// run through a pre-warmed artifact cache, so every iteration
		// reuses cached MRRGs and the formulation template and pays only
		// stamping + solving. Diffing it against mapauto/scratch in one
		// result file shows the end-to-end artifact-cache speedup.
		mapAutoCachedSpec(),
		// BB cannot crack full mapping models within any sane budget
		// (the engine ablation shows mostly "T" cells), so its series
		// exercises the LP/branch-and-bound machinery on a synthetic
		// assignment model instead.
		seriesSpec{
			name: "solve-bb/assignment-8",
			setup: func(opts SuiteOptions) (op, error) {
				budget := opts.SolveBudget
				if budget <= 0 {
					budget = 30 * time.Second
				}
				return func() (map[string]int64, error) {
					m := assignmentModel(8)
					ctx, cancel := context.WithTimeout(context.Background(), budget)
					defer cancel()
					sol, err := bb.New().Solve(ctx, m)
					if err != nil {
						return nil, err
					}
					if sol.Status != ilp.Optimal {
						return nil, fmt.Errorf("expected an optimal assignment, got %v", sol.Status)
					}
					return sol.Stats, nil
				}, nil
			},
		},
	)
	return specs
}

// assignmentModel builds an n x n assignment problem: every row picks
// exactly one column, every column carries at most one row, minimising a
// fixed cost table. Deterministic by construction.
func assignmentModel(n int) *ilp.Model {
	m := ilp.NewModel(fmt.Sprintf("assignment-%d", n))
	vars := make([][]ilp.Var, n)
	for i := range vars {
		vars[i] = make([]ilp.Var, n)
		for j := range vars[i] {
			v := m.Binary(fmt.Sprintf("x[%d,%d]", i, j))
			vars[i][j] = v
			m.Objective = append(m.Objective, ilp.Term{Var: v, Coef: (i*7+j*3)%11 + 1})
		}
	}
	for i := 0; i < n; i++ {
		m.AddEQ("row", ilp.Sum(vars[i]...), 1)
		col := make([]ilp.Var, n)
		for j := 0; j < n; j++ {
			col[j] = vars[j][i]
		}
		m.AddLE("col", ilp.Sum(col...), 1)
	}
	return m
}

// solveScaleSpec builds one rung of the fixed-width scaling ladder: the
// accum kernel solved by a clause-sharing gang of w workers. The budget
// is private to the series so the rung measures a true w-gang regardless
// of what else the process caps workers at. Ungated: gang timing scales
// with the runner's core count by design.
func solveScaleSpec(w int) seriesSpec {
	gs := arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1}
	return seriesSpec{
		name: fmt.Sprintf("solve-scale/accum@w%d", w),
		setup: func(opts SuiteOptions) (op, error) {
			a, err := arch.Grid(gs)
			if err != nil {
				return nil, err
			}
			mg, err := mrrg.Generate(a)
			if err != nil {
				return nil, err
			}
			g, err := bench.Get("accum")
			if err != nil {
				return nil, err
			}
			solveBudget := opts.SolveBudget
			if solveBudget <= 0 {
				solveBudget = 30 * time.Second
			}
			mopts := mapper.Options{Workers: w, Seed: 1, Budget: budget.New(w)}
			return func() (map[string]int64, error) {
				ctx, cancel := context.WithTimeout(context.Background(), solveBudget)
				defer cancel()
				res, err := mapper.Map(ctx, g, mg, mopts)
				if err != nil {
					return nil, err
				}
				if !res.Feasible() {
					return nil, fmt.Errorf("expected a feasible mapping, got %v", res.Status)
				}
				return res.SolverStats, nil
			}, nil
		},
	}
}

// mapAutoSpec is the end-to-end auto-II series whose gang width follows
// SuiteOptions.Workers, so a Workers=1 result file diffed against a
// Workers=4 file measures the full parallel stack (speculative sweep +
// clause-sharing gangs) on the same instance. mult_10 on the
// heterogeneous grid is the classic MII-gated case: the sweep starts at
// II=2 and must prove feasibility there.
func mapAutoSpec() seriesSpec {
	gs := arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: false, Contexts: 1}
	return seriesSpec{
		name: "mapauto/mult_10",
		setup: func(opts SuiteOptions) (op, error) {
			a, err := arch.Grid(gs)
			if err != nil {
				return nil, err
			}
			g, err := bench.Get("mult_10")
			if err != nil {
				return nil, err
			}
			solveBudget := opts.SolveBudget
			if solveBudget <= 0 {
				solveBudget = 30 * time.Second
			}
			w := opts.Workers
			if w < 1 {
				w = 1
			}
			// Symmetry pinned off: this series isolates gang scaling.
			mopts := mapper.Options{Workers: w, Seed: 1, Symmetry: mapper.SymmetryOff, Budget: budget.New(w)}
			return func() (map[string]int64, error) {
				ctx, cancel := context.WithTimeout(context.Background(), solveBudget)
				defer cancel()
				res, err := mapper.MapAuto(ctx, g, a, 4, mopts)
				if err != nil {
					return nil, err
				}
				if !res.Feasible() || res.II != 2 {
					return nil, fmt.Errorf("expected mult_10 feasible at II=2, got II=%d %v", res.II, res.Status)
				}
				return res.SolverStats, nil
			}, nil
		},
	}
}

// mapAutoScratchSpec is the mult_10 auto-II sweep on the heterogeneous
// grid (the MII-gated flagship the plain mapauto series also runs),
// solved sequentially (Workers=1, Seed=1) with a fresh solver per II.
// Gated on the short tier: sequential seeded solves are
// allocation-deterministic.
//
// Symmetry is pinned off so the series stays comparable with committed
// results from before MapAuto's auto mode added lex-leader constraints,
// which shift the seeded trajectory on this single-rung SAT ladder (see
// mapauto/{sym,nosym} for the series that measures symmetry).
func mapAutoScratchSpec() seriesSpec {
	gs := arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: false, Contexts: 1}
	return seriesSpec{
		name:      "mapauto/scratch",
		gated:     true,
		shortTier: true,
		setup: func(opts SuiteOptions) (op, error) {
			a, err := arch.Grid(gs)
			if err != nil {
				return nil, err
			}
			g, err := bench.Get("mult_10")
			if err != nil {
				return nil, err
			}
			solveBudget := opts.SolveBudget
			if solveBudget <= 0 {
				solveBudget = 30 * time.Second
			}
			mopts := mapper.Options{Workers: 1, Seed: 1,
				Symmetry: mapper.SymmetryOff, Budget: budget.New(1)}
			return func() (map[string]int64, error) {
				ctx, cancel := context.WithTimeout(context.Background(), solveBudget)
				defer cancel()
				res, err := mapper.MapAuto(ctx, g, a, 4, mopts)
				if err != nil {
					return nil, err
				}
				if !res.Feasible() || res.II != 2 {
					return nil, fmt.Errorf("expected mult_10 feasible at II=2, got II=%d %v", res.II, res.Status)
				}
				return res.SolverStats, nil
			}, nil
		},
	}
}

// symmetryTwinSpec builds one half of the sym/nosym twin pair: the mac
// auto-II ladder on the homogeneous diagonal 3x3 grid (II=1 is
// infeasible and must be proven so; II=2 is optimal), solved
// sequentially with a fixed seed so the halves walk identical sweeps
// and differ only in whether the template carries lex-leader symmetry
// constraints. Gated on the short tier: like mapauto/scratch, the
// sequential seeded ladder is allocation-deterministic, and the
// gate diffs allocs rather than the restart-noisy wall clock.
func symmetryTwinSpec(name string, sym mapper.SymmetryMode) seriesSpec {
	gs := arch.GridSpec{Rows: 3, Cols: 3, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1}
	return seriesSpec{
		name:      name,
		gated:     true,
		shortTier: true,
		setup: func(opts SuiteOptions) (op, error) {
			a, err := arch.Grid(gs)
			if err != nil {
				return nil, err
			}
			g, err := bench.Get("mac")
			if err != nil {
				return nil, err
			}
			solveBudget := opts.SolveBudget
			if solveBudget <= 0 {
				solveBudget = 30 * time.Second
			}
			mopts := mapper.Options{Workers: 1, Seed: 1, Symmetry: sym, Budget: budget.New(1)}
			return func() (map[string]int64, error) {
				ctx, cancel := context.WithTimeout(context.Background(), solveBudget)
				defer cancel()
				res, err := mapper.MapAuto(ctx, g, a, 4, mopts)
				if err != nil {
					return nil, err
				}
				if !res.Feasible() || res.II != 2 {
					return nil, fmt.Errorf("expected mac feasible at II=2, got II=%d %v", res.II, res.Status)
				}
				return res.SolverStats, nil
			}, nil
		},
	}
}

// formulateTwinSpec builds one half of the template/scratch formulation
// pair: the accum model on the standard formulation fabric, stamped
// from a warm artifact cache (cached=true) or formulated from scratch
// every iteration (cached=false). Gated on the short tier like the
// other formulate series: pure construction, deterministic allocations.
func formulateTwinSpec(name string, cached bool) seriesSpec {
	return seriesSpec{
		name:      name,
		gated:     true,
		shortTier: true,
		setup: func(SuiteOptions) (op, error) {
			a, err := arch.Grid(formulationArch)
			if err != nil {
				return nil, err
			}
			mg, err := mrrg.Generate(a)
			if err != nil {
				return nil, err
			}
			g, err := bench.Get("accum")
			if err != nil {
				return nil, err
			}
			mopts := mapper.Options{}
			if cached {
				mopts.Artifacts = mapper.NewArtifactCache(4)
				// Warm the cache: the series then measures the steady
				// state — the stamp cost every ladder rung after the
				// first pays.
				if _, _, err := mapper.BuildModel(g, mg, mopts); err != nil {
					return nil, err
				}
			}
			return func() (map[string]int64, error) {
				m, reason, err := mapper.BuildModel(g, mg, mopts)
				if err != nil {
					return nil, err
				}
				if m == nil {
					return nil, fmt.Errorf("unexpectedly infeasible: %s", reason)
				}
				return nil, nil
			}, nil
		},
	}
}

// mapAutoCachedSpec is the artifact-cached variant of mapauto/scratch:
// the identical sequential seeded mult_10 sweep, run through a
// pre-warmed artifact cache shared across iterations.
func mapAutoCachedSpec() seriesSpec {
	gs := arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: false, Contexts: 1}
	return seriesSpec{
		name:      "mapauto/cached",
		gated:     true,
		shortTier: true,
		setup: func(opts SuiteOptions) (op, error) {
			a, err := arch.Grid(gs)
			if err != nil {
				return nil, err
			}
			g, err := bench.Get("mult_10")
			if err != nil {
				return nil, err
			}
			solveBudget := opts.SolveBudget
			if solveBudget <= 0 {
				solveBudget = 30 * time.Second
			}
			// Symmetry pinned off like the ladder twins this series is
			// diffed against: it isolates the artifact-cache variable.
			mopts := mapper.Options{Workers: 1, Seed: 1, Symmetry: mapper.SymmetryOff,
				Budget: budget.New(1), Artifacts: mapper.NewArtifactCache(8)}
			warmCtx, warmCancel := context.WithTimeout(context.Background(), solveBudget)
			defer warmCancel()
			if _, err := mapper.MapAuto(warmCtx, g, a, 4, mopts); err != nil {
				return nil, err
			}
			return func() (map[string]int64, error) {
				ctx, cancel := context.WithTimeout(context.Background(), solveBudget)
				defer cancel()
				res, err := mapper.MapAuto(ctx, g, a, 4, mopts)
				if err != nil {
					return nil, err
				}
				if !res.Feasible() || res.II != 2 {
					return nil, fmt.Errorf("expected mult_10 feasible at II=2, got II=%d %v", res.II, res.Status)
				}
				return res.SolverStats, nil
			}, nil
		},
	}
}

// solveSpec builds an ungated end-to-end solver series that records the
// engine's counters (decisions, propagations, conflicts, ...).
func solveSpec(name, kernel string, gs arch.GridSpec, mopts mapper.Options) seriesSpec {
	return seriesSpec{
		name: name,
		setup: func(opts SuiteOptions) (op, error) {
			a, err := arch.Grid(gs)
			if err != nil {
				return nil, err
			}
			mg, err := mrrg.Generate(a)
			if err != nil {
				return nil, err
			}
			g, err := bench.Get(kernel)
			if err != nil {
				return nil, err
			}
			budget := opts.SolveBudget
			if budget <= 0 {
				budget = 30 * time.Second
			}
			return func() (map[string]int64, error) {
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				defer cancel()
				res, err := mapper.Map(ctx, g, mg, mopts)
				if err != nil {
					return nil, err
				}
				if !res.Feasible() {
					return nil, fmt.Errorf("expected a feasible mapping, got %v", res.Status)
				}
				return res.SolverStats, nil
			}, nil
		},
	}
}

// SeriesNames lists the suite's series for the given tier, in run order.
func SeriesNames(short bool) []string {
	var names []string
	for _, sp := range suite() {
		if short && !sp.shortTier {
			continue
		}
		names = append(names, sp.name)
	}
	return names
}

// RunSuite runs the benchmark suite and returns the collected result.
// Progress (one line per series) goes to progress when non-nil.
func RunSuite(ctx context.Context, opts SuiteOptions, progress io.Writer) (*Result, error) {
	samples := opts.Samples
	minTime := opts.MinSampleTime
	if samples <= 0 {
		samples = 7
		if opts.Short {
			samples = 5
		}
	}
	if minTime <= 0 {
		minTime = 200 * time.Millisecond
		if opts.Short {
			minTime = 50 * time.Millisecond
		}
	}
	res := NewResult(opts.Label, opts.Short)
	res.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	for _, sp := range suite() {
		if opts.Short && !sp.shortTier {
			continue
		}
		if opts.Filter != nil && !opts.Filter.MatchString(sp.name) {
			continue
		}
		o, err := sp.setup(opts)
		if err != nil {
			return nil, fmt.Errorf("perf: %s: %w", sp.name, err)
		}
		mopts := measureOptions{samples: samples, minSampleTime: minTime, maxIters: 1_000_000}
		start := time.Now()
		s, err := measure(ctx, sp.name, sp.gated, o, mopts)
		if err != nil {
			return nil, err
		}
		if progress != nil {
			fmt.Fprintf(progress, "%-40s %4d samples x %6d iters   %12.0f ns/op %10.0f allocs/op   (%v)\n",
				sp.name, samples, s.Iters, Median(s.TimeNsPerOp), Median(s.AllocsPerOp), time.Since(start).Round(time.Millisecond))
		}
		res.Series = append(res.Series, s)
	}
	if len(res.Series) == 0 {
		return nil, fmt.Errorf("perf: no series matched")
	}
	return res, nil
}
