// Command experiments regenerates the paper's evaluation artifacts:
//
//	experiments table1                 benchmark characteristics (Table 1)
//	experiments table2 [flags]         ILP mappability sweep (Table 2)
//	experiments fig8   [flags]         ILP vs simulated annealing (Fig. 8)
//	experiments ablate [flags]         pruning / engine ablation studies
//
// Each subcommand prints the corresponding table or chart to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
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
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "table1":
		err = exper.RenderTable1(os.Stdout)
	case "table2":
		err = runTable2(args)
	case "fig8":
		err = runFig8(args)
	case "ablate":
		err = runAblate(args)
	case "all":
		err = runAll(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: experiments <table1|table2|fig8|ablate|all> [flags]`)
}

// runAll regenerates every artifact in one pass, reusing the ILP sweep
// for both Table 2 and the ILP side of Fig. 8.
func runAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	cfg := sweepFlags(fs)
	saTimeout := fs.Duration("sa-timeout", 10*time.Second, "per-instance annealer budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	timeout, verbose := cfg.timeout, cfg.verbose
	names, err := parseBenchList(*cfg.benchList)
	if err != nil {
		return err
	}
	mOpts, err := cfg.mapperOptions()
	if err != nil {
		return err
	}
	fmt.Println("== Table 1: benchmark characteristics ==")
	if err := exper.RenderTable1(os.Stdout); err != nil {
		return err
	}

	fmt.Printf("\n== Table 2: ILP mappability (per-instance timeout %v) ==\n", *timeout)
	opts := exper.SweepOptions{Timeout: *timeout, Benchmarks: names, Mapper: mOpts}
	if *verbose {
		opts.Progress = os.Stderr
	}
	sweep, err := exper.RunSweep(context.Background(), opts)
	if err != nil {
		return err
	}
	if err := sweep.RenderTable2(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := sweep.RuntimeSummary(os.Stdout, time.Second, 10*time.Second, *timeout); err != nil {
		return err
	}

	fmt.Printf("\n== Fig. 8: ILP vs simulated annealing (SA budget %v) ==\n", *saTimeout)
	fOpts := exper.Fig8Options{ILPSweep: sweep, SATimeout: *saTimeout}
	if *verbose {
		fOpts.Progress = os.Stderr
	}
	rows, _, err := exper.RunFig8(context.Background(), fOpts)
	if err != nil {
		return err
	}
	if err := exper.RenderFig8(os.Stdout, rows, len(sweep.Benchmarks)); err != nil {
		return err
	}

	fmt.Println("\n== Ablations ==")
	return runAblate([]string{"-timeout", timeout.String()})
}

// sweepConfig holds the flags shared by every sweep subcommand.
type sweepConfig struct {
	timeout   *time.Duration
	benchList *string
	verbose   *bool
	engine    *string
	daemon    *string
	knobs     *mapper.Flags
}

func sweepFlags(fs *flag.FlagSet) sweepConfig {
	knobs := &mapper.Flags{Workers: 1}
	knobs.Register(fs, "", "")
	return sweepConfig{
		timeout:   fs.Duration("timeout", 60*time.Second, "per-instance solver timeout"),
		benchList: fs.String("benchmarks", "", "comma-separated benchmark subset (default: all 19)"),
		verbose:   fs.Bool("v", false, "print per-instance progress to stderr"),
		engine:    fs.String("engine", "cdcl", "ILP engine per cell: cdcl | bb"),
		daemon:    fs.String("daemon", "", "offload every solve to a cgramapd server at this URL (duplicate instances across sweeps hit its cache)"),
		knobs:     knobs,
	}
}

// mapperOptions translates the engine flags into per-cell mapper options.
func (c sweepConfig) mapperOptions() (mapper.Options, error) {
	opts, err := c.knobs.Options()
	if err != nil {
		return opts, err
	}
	return service.EngineOptions(opts, *c.engine, *c.daemon)
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

func runTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	cfg := sweepFlags(fs)
	times := fs.Bool("times", false, "print the runtime distribution summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	timeout, verbose := cfg.timeout, cfg.verbose
	names, err := parseBenchList(*cfg.benchList)
	if err != nil {
		return err
	}
	mOpts, err := cfg.mapperOptions()
	if err != nil {
		return err
	}
	opts := exper.SweepOptions{Timeout: *timeout, Benchmarks: names, Mapper: mOpts}
	if *verbose {
		opts.Progress = os.Stderr
	}
	sweep, err := exper.RunSweep(context.Background(), opts)
	if err != nil {
		return err
	}
	if err := sweep.RenderTable2(os.Stdout); err != nil {
		return err
	}
	if *times {
		fmt.Println()
		return sweep.RuntimeSummary(os.Stdout, time.Second, 10*time.Second, *timeout)
	}
	return nil
}

func runFig8(args []string) error {
	fs := flag.NewFlagSet("fig8", flag.ExitOnError)
	cfg := sweepFlags(fs)
	saSeed := fs.Int64("sa-seed", 1, "annealer random seed")
	saMoves := fs.Int("sa-moves", 0, "annealer moves per temperature (0 = moderate default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	timeout, verbose := cfg.timeout, cfg.verbose
	names, err := parseBenchList(*cfg.benchList)
	if err != nil {
		return err
	}
	mOpts, err := cfg.mapperOptions()
	if err != nil {
		return err
	}
	opts := exper.Fig8Options{
		Sweep:     exper.SweepOptions{Timeout: *timeout, Benchmarks: names, Mapper: mOpts},
		SA:        anneal.Options{Seed: *saSeed, MovesPerTemp: *saMoves},
		SATimeout: *timeout,
	}
	if *verbose {
		opts.Sweep.Progress = os.Stderr
		opts.Progress = os.Stderr
	}
	rows, sweep, err := exper.RunFig8(context.Background(), opts)
	if err != nil {
		return err
	}
	if err := exper.RenderFig8(os.Stdout, rows, len(sweep.Benchmarks)); err != nil {
		return err
	}
	if anomalies := exper.VerifyILPAtLeastSA(rows); len(anomalies) > 0 {
		fmt.Printf("note: SA exceeded the ILP count on %v (possible only via ILP timeouts)\n", anomalies)
	}
	return nil
}

func runAblate(args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	cfg := sweepFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	timeout := cfg.timeout
	names, err := parseBenchList(*cfg.benchList)
	if err != nil {
		return err
	}
	if names == nil {
		names = []string{"accum", "2x2-f", "mult_10"}
	}
	fmt.Println("== Reachability pruning / counting presolve ablation (homo-orth-c1-4x4) ==")
	rows, err := exper.RunPruningAblation(context.Background(), *timeout, names,
		arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Homogeneous: true, Contexts: 1})
	if err != nil {
		return err
	}
	if err := exper.RenderAblation(os.Stdout, rows); err != nil {
		return err
	}
	fmt.Println("\n== Solver engine cross-check (CDCL vs LP branch-and-bound, 2x2 grid) ==")
	rows, err = exper.RunEngineAblation(context.Background(), *timeout, []string{"2x2-f", "2x2-p"})
	if err != nil {
		return err
	}
	return exper.RenderAblation(os.Stdout, rows)
}
