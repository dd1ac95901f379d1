// Command frontier generates workloads and charts mappability
// frontiers:
//
//	frontier generate [flags]      emit kernel-ladder DFGs / fabric XMLs
//	frontier run      [flags]      bisect kernel size against the mapper
//	frontier report   [flags]      re-render a saved frontier as markdown
//
// The run subcommand sweeps every requested (fabric, II) pair, bisecting
// the kernel ladder between -min and -max to find where mapping flips
// from feasible to infeasible-or-timeout. With -daemon it drives a
// cgramapd server instead of solving in-process, exercising the service
// layer end to end. Fixed seeds give byte-identical reports across runs
// (probe wall clocks are excluded on purpose).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/mapper"
	"cgramap/internal/service"
	"cgramap/internal/workload"
)

func main() {
	// -h has printed the usage already; it is not a failure.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "frontier:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: frontier <generate|run|report> [flags]")
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "generate", "gen":
		return runGenerate(rest, stdout)
	case "run", "frontier":
		return runFrontier(rest, stdout)
	case "report":
		return runReport(rest, stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want generate, run or report)", cmd)
	}
}

// runGenerate writes kernel-ladder DFGs and fabric XMLs, either to a
// corpus directory (-out) or concatenated to stdout. The output is a
// pure function of the flags, so regenerating a committed corpus is a
// no-op diff.
func runGenerate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	family := fs.String("family", "gen", "kernel family: dot | fir | stencil | reduce | conv2d | matvec | gen")
	min := fs.Int("min", 1, "smallest ladder rung")
	max := fs.Int("max", 8, "largest ladder rung")
	seed := fs.Int64("seed", 1, "random seed (gen family only)")
	fabrics := fs.String("fabrics", "", "also emit these fabrics as XML, e.g. \"8x8:diag;16x16\"")
	out := fs.String("out", "", "write one file per artifact into this directory (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *min < 1 || *max < *min {
		return fmt.Errorf("bad rung range [%d, %d]", *min, *max)
	}
	emit := func(name, text string) error {
		if *out == "" {
			_, err := fmt.Fprintf(stdout, "# -- %s --\n%s", name, text)
			return err
		}
		return os.WriteFile(filepath.Join(*out, name), []byte(text), 0o644)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}
	for n := *min; n <= *max; n++ {
		g, err := workload.Kernel(workload.Family(*family), n, *seed)
		if err != nil {
			return err
		}
		if err := emit(g.Name+".dfg", g.FormatString()); err != nil {
			return err
		}
	}
	if *fabrics != "" {
		specs, err := workload.ParseFabrics(*fabrics)
		if err != nil {
			return err
		}
		for _, spec := range specs {
			a, err := arch.Grid(spec)
			if err != nil {
				return err
			}
			var sb strings.Builder
			if err := a.WriteXML(&sb); err != nil {
				return err
			}
			if err := emit(spec.Name()+".xml", sb.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// runFrontier executes the sweep and writes the requested reports.
func runFrontier(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	family := fs.String("family", "dot", "kernel family: dot | fir | stencil | reduce | conv2d | matvec | gen")
	min := fs.Int("min", 1, "smallest ladder rung probed")
	max := fs.Int("max", 16, "largest ladder rung probed")
	seed := fs.Int64("seed", 1, "random seed (gen family; recorded in the report)")
	fabrics := fs.String("fabrics", "", "fabric list, e.g. \"8x8:diag;8x8:diag,hetero\" (default: the standard ladder)")
	iis := fs.String("iis", "", "comma-separated IIs per fabric (default: each fabric's own context count)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-probe budget; a timeout counts as unmappable")
	daemon := fs.String("daemon", "", "solve via a cgramapd server at this URL instead of in-process")
	knobs := mapper.Flags{Workers: 1, ArtifactCache: 32}
	knobs.Register(fs, "", "solver-seed")
	knobs.RegisterReuse(fs)
	verbose := fs.Bool("v", false, "print per-probe progress to stderr")
	jsonOut := fs.String("json", "", "write the frontier as JSON to this file (\"-\" = stdout)")
	mdOut := fs.String("md", "", "write the frontier as markdown to this file (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := workload.FrontierSpec{
		Family: workload.Family(*family),
		Seed:   *seed,
		MinN:   *min,
		MaxN:   *max,
	}
	if *fabrics == "" {
		spec.Fabrics = workload.StandardFabrics()
	} else {
		var err error
		if spec.Fabrics, err = workload.ParseFabrics(*fabrics); err != nil {
			return err
		}
	}
	if *iis != "" {
		for _, tok := range strings.Split(*iis, ",") {
			ii, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return fmt.Errorf("bad II %q", tok)
			}
			spec.IIs = append(spec.IIs, ii)
		}
	}
	mOpts, err := knobs.Options()
	if err != nil {
		return err
	}
	if mOpts, err = service.DaemonOptions(mOpts, *daemon); err != nil {
		return err
	}
	opts := workload.FrontierOptions{Timeout: *timeout, Mapper: mOpts}
	if *verbose {
		opts.Progress = os.Stderr
	}
	front, err := workload.RunFrontier(context.Background(), spec, opts)
	if err != nil {
		return err
	}
	wrote := false
	sink := func(path string, render func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		wrote = true
		if path == "-" {
			return render(stdout)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := sink(*jsonOut, front.WriteJSON); err != nil {
		return err
	}
	if err := sink(*mdOut, front.WriteMarkdown); err != nil {
		return err
	}
	if !wrote {
		return front.WriteMarkdown(stdout)
	}
	return nil
}

// runReport re-renders a saved JSON frontier as markdown.
func runReport(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	in := fs.String("in", "-", "frontier JSON to render (\"-\" = stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := io.Reader(os.Stdin)
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	front, err := workload.ReadFrontierJSON(r)
	if err != nil {
		return err
	}
	return front.WriteMarkdown(stdout)
}
