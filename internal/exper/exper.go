// Package exper contains the experiment runners that regenerate the
// paper's evaluation artifacts: Table 1 (benchmark characteristics),
// Table 2 (ILP mappability of 19 benchmarks over 8 architectures) and
// Fig. 8 (ILP mapper vs simulated-annealing mapper), plus the ablation
// studies called out in DESIGN.md.
package exper

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
)

// Cell is one benchmark-on-architecture outcome.
type Cell struct {
	Benchmark string
	Arch      string
	Status    ilp.Status
	// Elapsed is the cell's wall clock (build + solve + decode across
	// however many workers ran); SolveTime is the solver's own share.
	// With parallel workers the two diverge: wall clock is what a user
	// waits, solver time is what the machine spent.
	Elapsed   time.Duration
	SolveTime time.Duration
	Vars      int
	Consts    int
	Reason    string
}

// Mark renders the cell the way the paper's Table 2 does: 1 feasible,
// 0 infeasible, T solver timeout (ilp.Status.Mark).
func (c Cell) Mark() string { return c.Status.Mark() }

// Sweep is a full benchmarks-by-architectures result grid.
type Sweep struct {
	Benchmarks []string
	Specs      []arch.GridSpec
	// Cells[b][a] corresponds to Benchmarks[b] on Specs[a].
	Cells [][]Cell
}

// FeasibleTotals returns the per-architecture feasible counts (the
// paper's "Total Feasible" row).
func (s *Sweep) FeasibleTotals() []int {
	totals := make([]int, len(s.Specs))
	for _, row := range s.Cells {
		for a, c := range row {
			if feasible(c.Status) {
				totals[a]++
			}
		}
	}
	return totals
}

// SweepOptions configures a Table 2 style run.
type SweepOptions struct {
	// Timeout bounds each benchmark/architecture solve (the paper used
	// a 24 h cap; experiments here default to seconds).
	Timeout time.Duration
	// Benchmarks defaults to the paper's 19; Specs to the paper's 8.
	Benchmarks []string
	Specs      []arch.GridSpec
	// Mapper carries mapper options (engine, objective, ablations). Set
	// Mapper.MapWith (e.g. a service client's MapFunc) to route every
	// cell through a remote daemon instead of the direct pipeline.
	Mapper mapper.Options
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

func (o *SweepOptions) fill() {
	if o.Timeout == 0 {
		o.Timeout = 60 * time.Second
	}
	if o.Benchmarks == nil {
		o.Benchmarks = bench.Names()
	}
	if o.Specs == nil {
		o.Specs = arch.PaperArchitectures()
	}
}

// RunSweep maps every benchmark onto every architecture with the ILP
// mapper, regenerating the data behind the paper's Table 2.
func RunSweep(ctx context.Context, opts SweepOptions) (*Sweep, error) {
	opts.fill()
	mrrgs := make([]*mrrg.Graph, len(opts.Specs))
	for i, spec := range opts.Specs {
		a, err := arch.Grid(spec)
		if err != nil {
			return nil, fmt.Errorf("exper: building %s: %w", spec.Name(), err)
		}
		if mrrgs[i], err = mrrg.Generate(a); err != nil {
			return nil, fmt.Errorf("exper: MRRG for %s: %w", spec.Name(), err)
		}
	}
	sweep := &Sweep{Benchmarks: opts.Benchmarks, Specs: opts.Specs}
	for _, name := range opts.Benchmarks {
		g, err := bench.Get(name)
		if err != nil {
			return nil, err
		}
		row := make([]Cell, len(opts.Specs))
		for a, spec := range opts.Specs {
			cell, err := runCell(ctx, g, mrrgs[a], spec.Name(), opts)
			if err != nil {
				return nil, err
			}
			row[a] = cell
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "%-14s %-20s %s  wall %8.1fms  solve %8.1fms  (%d vars, %d constraints) %s\n",
					name, spec.Name(), cell.Mark(),
					float64(cell.Elapsed.Microseconds())/1000,
					float64(cell.SolveTime.Microseconds())/1000, cell.Vars, cell.Consts, cell.Reason)
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		sweep.Cells = append(sweep.Cells, row)
	}
	return sweep, nil
}

// runCell maps one benchmark onto one architecture under the per-cell
// deadline. A crashing or erroring mapper must not take the whole sweep
// down with it (the paper's grid has 152 cells; one wedged instance
// should cost one "T", not the run), so panics and mapper errors are
// contained into an Unknown cell with the failure recorded as its
// Reason. Only a cancelled sweep context aborts the grid.
func runCell(ctx context.Context, g *dfg.Graph, mg *mrrg.Graph, archName string, opts SweepOptions) (Cell, error) {
	res, elapsed, err := mapper.MapContained(ctx, g, mg, opts.Mapper, opts.Timeout)
	if err != nil {
		return Cell{}, fmt.Errorf("exper: %s on %s: %w", g.Name, archName, err)
	}
	return Cell{Benchmark: g.Name, Arch: archName, Status: res.Status, Reason: res.Reason,
		SolveTime: res.SolveTime, Elapsed: elapsed, Vars: res.Vars, Consts: res.Constraints}, nil
}

// RenderTable2 prints the sweep in the paper's Table 2 layout.
func (s *Sweep) RenderTable2(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-14s", "Benchmark")
	for _, spec := range s.Specs {
		fmt.Fprintf(bw, " %-18s", spec.Name())
	}
	fmt.Fprintln(bw)
	for b, name := range s.Benchmarks {
		fmt.Fprintf(bw, "%-14s", name)
		for a := range s.Specs {
			fmt.Fprintf(bw, " %-18s", s.Cells[b][a].Mark())
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "%-14s", "Total Feasible")
	for _, total := range s.FeasibleTotals() {
		fmt.Fprintf(bw, " %-18d", total)
	}
	fmt.Fprintln(bw)
	return bw.Flush()
}

// RuntimeSummary reports the fraction of cells solved within each of the
// given budgets plus the worst cell — the paper's ">80% of runs completed
// within one hour" observation, rescaled to this solver stack.
func (s *Sweep) RuntimeSummary(w io.Writer, budgets ...time.Duration) error {
	var all []time.Duration
	var totalWall, totalSolve time.Duration
	worst := Cell{}
	for _, row := range s.Cells {
		for _, c := range row {
			all = append(all, c.Elapsed)
			totalWall += c.Elapsed
			totalSolve += c.SolveTime
			if c.Elapsed > worst.Elapsed {
				worst = c
			}
		}
	}
	bw := bufio.NewWriter(w)
	for _, b := range budgets {
		n := 0
		for _, d := range all {
			if d <= b {
				n++
			}
		}
		fmt.Fprintf(bw, "runs within %-8v: %d/%d (%.0f%%)\n", b, n, len(all), 100*float64(n)/float64(len(all)))
	}
	fmt.Fprintf(bw, "slowest run: %s on %s (%v, %s)\n", worst.Benchmark, worst.Arch, worst.Elapsed, worst.Mark())
	fmt.Fprintf(bw, "total wall clock %v, total solver time %v\n",
		totalWall.Round(time.Millisecond), totalSolve.Round(time.Millisecond))
	return bw.Flush()
}

// RenderTable1 prints the benchmark characteristics (paper Table 1),
// computed from the synthesised DFGs and cross-checked against the
// published numbers.
func RenderTable1(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-14s %5s %11s %12s\n", "Benchmark", "I/Os", "Operations", "# Multiplies")
	for _, want := range bench.Table1 {
		g := bench.MustGet(want.Name)
		st := g.Stats()
		note := ""
		if st.IOs != want.IOs || st.Ops != want.Ops || st.Multiplies != want.Multiplies {
			note = "  MISMATCH vs paper"
		}
		fmt.Fprintf(bw, "%-14s %5d %11d %12d%s\n", want.Name, st.IOs, st.Ops, st.Multiplies, note)
	}
	return bw.Flush()
}
