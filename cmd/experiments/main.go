// Command experiments regenerates the paper's evaluation artifacts:
//
//	experiments table1                 benchmark characteristics (Table 1)
//	experiments table2 [flags]         ILP mappability sweep (Table 2)
//	experiments fig8   [flags]         ILP vs simulated annealing (Fig. 8)
//	experiments ablate [flags]         pruning / engine ablation studies
//	experiments all    [flags]         all of the above in one pass
//
// Each subcommand prints the corresponding table or chart to stdout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cgramap/internal/anneal"
	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/exper"
	"cgramap/internal/mapper"
	"cgramap/internal/service"
)

func main() {
	// -h has printed the usage already; it is not a failure.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: experiments <table1|table2|fig8|ablate|all> [flags]")
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "table1":
		return exper.RenderTable1(stdout)
	case "table2":
		return runTable2(rest, stdout)
	case "fig8":
		return runFig8(rest, stdout)
	case "ablate":
		return runAblate(rest, stdout)
	case "all":
		return runAll(rest, stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want table1, table2, fig8, ablate or all)", cmd)
	}
}

// runAll regenerates every artifact in one pass, reusing the ILP sweep
// for both Table 2 and the ILP side of Fig. 8.
func runAll(args []string, stdout io.Writer) error {
	fs, cfg := sweepFlags("all")
	saTimeout := fs.Duration("sa-timeout", 10*time.Second, "per-instance annealer budget")
	opts, err := cfg.parse(fs, args)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "== Table 1: benchmark characteristics ==")
	if err := exper.RenderTable1(stdout); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "\n== Table 2: ILP mappability (per-instance timeout %v) ==\n", opts.Timeout)
	sweep, err := exper.RunSweep(context.Background(), opts)
	if err != nil {
		return err
	}
	if err := sweep.RenderTable2(stdout); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	if err := sweep.RuntimeSummary(stdout, time.Second, 10*time.Second, opts.Timeout); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "\n== Fig. 8: ILP vs simulated annealing (SA budget %v) ==\n", *saTimeout)
	fOpts := exper.Fig8Options{ILPSweep: sweep, SATimeout: *saTimeout, Progress: opts.Progress}
	rows, _, err := exper.RunFig8(context.Background(), fOpts)
	if err != nil {
		return err
	}
	if err := exper.RenderFig8(stdout, rows, len(sweep.Benchmarks)); err != nil {
		return err
	}

	fmt.Fprintln(stdout, "\n== Ablations ==")
	return runAblate([]string{"-timeout", opts.Timeout.String()}, stdout)
}

// sweepConfig holds the flags shared by every sweep subcommand.
type sweepConfig struct {
	timeout   time.Duration
	benchList string
	verbose   bool
	daemon    string
	knobs     mapper.Flags
}

// sweepFlags returns a subcommand's flag set with the sweep flags
// registered, and the config they parse into.
func sweepFlags(name string) (*flag.FlagSet, *sweepConfig) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	c := &sweepConfig{knobs: mapper.Flags{Workers: 1}}
	c.knobs.Register(fs, "", "")
	fs.DurationVar(&c.timeout, "timeout", 60*time.Second, "per-instance solver timeout")
	fs.StringVar(&c.benchList, "benchmarks", "", "comma-separated benchmark subset (default: all 19)")
	fs.BoolVar(&c.verbose, "v", false, "print per-instance progress to stderr")
	fs.StringVar(&c.daemon, "daemon", "", "offload every solve to a cgramapd server at this URL (duplicate instances across sweeps hit its cache)")
	return fs, c
}

// parse parses args and resolves the sweep options they describe.
func (c *sweepConfig) parse(fs *flag.FlagSet, args []string) (exper.SweepOptions, error) {
	var opts exper.SweepOptions
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	names, err := parseBenchList(c.benchList)
	if err != nil {
		return opts, err
	}
	mOpts, err := c.knobs.Options()
	if err != nil {
		return opts, err
	}
	if mOpts, err = service.DaemonOptions(mOpts, c.daemon); err != nil {
		return opts, err
	}
	opts = exper.SweepOptions{Timeout: c.timeout, Benchmarks: names, Mapper: mOpts}
	if c.verbose {
		opts.Progress = os.Stderr
	}
	return opts, nil
}

func parseBenchList(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	names := strings.Split(s, ",")
	for _, n := range names {
		if _, err := bench.Get(n); err != nil {
			return nil, err
		}
	}
	return names, nil
}

func runTable2(args []string, stdout io.Writer) error {
	fs, cfg := sweepFlags("table2")
	times := fs.Bool("times", false, "print the runtime distribution summary")
	opts, err := cfg.parse(fs, args)
	if err != nil {
		return err
	}
	sweep, err := exper.RunSweep(context.Background(), opts)
	if err != nil {
		return err
	}
	if err := sweep.RenderTable2(stdout); err != nil {
		return err
	}
	if *times {
		fmt.Fprintln(stdout)
		return sweep.RuntimeSummary(stdout, time.Second, 10*time.Second, opts.Timeout)
	}
	return nil
}

func runFig8(args []string, stdout io.Writer) error {
	fs, cfg := sweepFlags("fig8")
	saSeed := fs.Int64("sa-seed", 1, "annealer random seed")
	saMoves := fs.Int("sa-moves", 0, "annealer moves per temperature (0 = moderate default)")
	sOpts, err := cfg.parse(fs, args)
	if err != nil {
		return err
	}
	opts := exper.Fig8Options{
		Sweep:     sOpts,
		SA:        anneal.Options{Seed: *saSeed, MovesPerTemp: *saMoves},
		SATimeout: sOpts.Timeout,
		Progress:  sOpts.Progress,
	}
	rows, sweep, err := exper.RunFig8(context.Background(), opts)
	if err != nil {
		return err
	}
	if err := exper.RenderFig8(stdout, rows, len(sweep.Benchmarks)); err != nil {
		return err
	}
	if anomalies := exper.VerifyILPAtLeastSA(rows); len(anomalies) > 0 {
		fmt.Fprintf(stdout, "note: SA exceeded the ILP count on %v (possible only via ILP timeouts)\n", anomalies)
	}
	return nil
}

// runAblate runs the ablation studies. They pick their own engines and
// fabrics, so of the sweep flags only -timeout and -benchmarks apply.
func runAblate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ablate", flag.ContinueOnError)
	timeout := fs.Duration("timeout", 60*time.Second, "per-instance solver timeout")
	benchList := fs.String("benchmarks", "", "comma-separated benchmark subset for the pruning ablation (default: accum, 2x2-f, mult_10)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names, err := parseBenchList(*benchList)
	if err != nil {
		return err
	}
	if names == nil {
		names = []string{"accum", "2x2-f", "mult_10"}
	}
	fmt.Fprintln(stdout, "== Reachability pruning / counting presolve ablation (homo-orth-c1-4x4) ==")
	rows, err := exper.RunPruningAblation(context.Background(), *timeout, names,
		arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Homogeneous: true, Contexts: 1})
	if err != nil {
		return err
	}
	if err := exper.RenderAblation(stdout, rows); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\n== Solver engine cross-check (CDCL vs LP branch-and-bound, 2x2 grid) ==")
	rows, err = exper.RunEngineAblation(context.Background(), *timeout, []string{"2x2-f", "2x2-p"})
	if err != nil {
		return err
	}
	return exper.RenderAblation(stdout, rows)
}
