// Command cgramap maps one application DFG onto one CGRA architecture
// using the paper's ILP formulation (or the simulated-annealing baseline)
// and prints the resulting placement and routing.
//
// The application comes from -dfg (textual DFG file) or -benchmark (one
// of the paper's Table 1 kernels); the architecture from -arch (XML
// description) or -fabric (a grid description such as
// 8x8:diag,hetero,c2; default 4x4). -contexts overrides either one's
// context count. Examples:
//
//	cgramap -benchmark accum -fabric 4x4:diag,c2
//	cgramap -dfg kernel.dfg -arch mycgra.xml -contexts 2 -objective routing
//	cgramap -benchmark mac -lp model.lp   # export, don't solve
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
	"cgramap/internal/config"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/sim"
	"cgramap/internal/visual"
)

// runOpts carries one invocation's parsed flags.
type runOpts struct {
	dfgFile, benchName       string
	archFile, fabric         string
	contexts                 int
	objective                string
	useSA                    bool
	knobs                    mapper.Flags
	autoII                   int
	timeout                  time.Duration
	lpOut                    string
	quiet, showCfg, validate bool
	floorplan                bool
}

func main() {
	var o runOpts
	flag.StringVar(&o.dfgFile, "dfg", "", "application DFG file (textual format)")
	flag.StringVar(&o.benchName, "benchmark", "", "built-in benchmark name (see 'experiments table1')")
	flag.StringVar(&o.archFile, "arch", "", "architecture XML file (excludes -fabric)")
	flag.StringVar(&o.fabric, "fabric", "", "grid description RxC[:orth|diag,homo|hetero,torus,cN,memN] (default "+arch.DefaultFabric+" without -arch)")
	flag.IntVar(&o.contexts, "contexts", 0, "execution contexts (II), overriding the architecture's own count (0 = keep it)")
	flag.StringVar(&o.objective, "objective", "feasibility", "feasibility | routing (minimise routing resources)")
	flag.BoolVar(&o.useSA, "anneal", false, "use the simulated-annealing mapper instead of ILP")
	o.knobs.Register(flag.CommandLine, "", "")
	flag.IntVar(&o.autoII, "auto-ii", 0, "search for the provably smallest initiation interval up to this bound (overrides -contexts; not with -anneal)")
	flag.DurationVar(&o.timeout, "timeout", 5*time.Minute, "solve timeout")
	flag.StringVar(&o.lpOut, "lp", "", "write the ILP model in LP format to this file and exit")
	flag.BoolVar(&o.quiet, "q", false, "print only the status line")
	flag.BoolVar(&o.showCfg, "config", false, "print the extracted fabric configuration")
	flag.BoolVar(&o.validate, "validate", false, "simulate the configuration and check it against DFG evaluation")
	flag.BoolVar(&o.floorplan, "floorplan", false, "print an ASCII floor plan of the mapping (grid architectures)")
	flag.Parse()
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgramap:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// Exit statuses, script-friendly: a wrapper can distinguish "mapping
// provably impossible" from "undecided within the budget" without
// parsing output.
const (
	exitOK         = 0 // feasible mapping found (or nothing to solve)
	exitError      = 1 // usage or internal error
	exitInfeasible = 2 // infeasibility proven
	exitUnknown    = 3 // timeout / undecided (the paper's "T")
)

func run(o runOpts) (int, error) {
	g, err := loadDFG(o.dfgFile, o.benchName)
	if err != nil {
		return exitError, err
	}
	a, err := arch.Load(o.archFile, o.fabric, o.contexts)
	if err != nil {
		return exitError, err
	}
	mg, err := mrrg.Generate(a)
	if err != nil {
		return exitError, err
	}
	fmt.Printf("mapping %s (%d ops, %d values) onto %s (%d MRRG nodes, %d contexts)\n",
		g.Name, g.NumOps(), g.NumVals(), a.Name, len(mg.Nodes), mg.Contexts)

	opts, err := o.knobs.Options()
	if err != nil {
		return exitError, err
	}
	switch o.objective {
	case "feasibility":
	case "routing":
		opts.Objective = mapper.MinimizeRouting
	default:
		return exitError, fmt.Errorf("unknown objective %q", o.objective)
	}
	if o.useSA && o.autoII > 0 {
		return exitError, fmt.Errorf("-auto-ii requires an exact engine (a heuristic cannot prove an II minimal)")
	}

	if o.lpOut != "" {
		model, reason, err := mapper.BuildModel(g, mg, opts)
		if err != nil {
			return exitError, err
		}
		if model == nil {
			return exitInfeasible, fmt.Errorf("instance infeasible before solving: %s", reason)
		}
		f, err := os.Create(o.lpOut)
		if err != nil {
			return exitError, err
		}
		// A failed write-back may only surface at Close; either way
		// the export failed and must not be reported as written.
		err = model.WriteLP(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return exitError, err
		}
		fmt.Printf("wrote %s (%d binaries, %d constraints)\n", o.lpOut, model.NumVars(), len(model.Constraints))
		return exitOK, nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()
	if o.useSA {
		res, err := anneal.Map(ctx, g, mg, anneal.Options{Seed: opts.Seed})
		if err != nil {
			return exitError, err
		}
		if !res.Feasible {
			// A heuristic miss is undecided, never an infeasibility proof.
			fmt.Printf("status: no mapping found by annealing (%d moves, cost %.0f)\n", res.Moves, res.Cost)
			return exitUnknown, nil
		}
		fmt.Printf("status: feasible (annealing, %d moves, routing cost %d)\n",
			res.Moves, res.Mapping.RoutingCost())
		return postProcess(res.Mapping, g, o)
	}

	if o.autoII > 0 {
		return runAutoII(ctx, g, a, o, opts)
	}

	start := time.Now()
	res, err := mapper.Map(ctx, g, mg, opts)
	if err != nil {
		return exitError, err
	}
	return reportResult(res, g, o, o.timeout, time.Since(start))
}

// runAutoII sweeps the II ladder for the provably smallest initiation
// interval.
func runAutoII(ctx context.Context, g *dfg.Graph, a *arch.Arch, o runOpts, opts mapper.Options) (int, error) {
	start := time.Now()
	auto, err := mapper.MapAuto(ctx, g, a, o.autoII, opts)
	if err != nil {
		return exitError, err
	}
	if len(auto.Tried) > 0 {
		fmt.Printf("auto-ii: tried %d II(s): %v\n", len(auto.Tried), auto.Tried)
	}
	if auto.Feasible() {
		fmt.Printf("auto-ii: smallest II = %d (proven, %v)\n", auto.II, time.Since(start).Round(time.Millisecond))
	}
	return reportResult(auto.Result, g, o, o.timeout, time.Since(start))
}

// reportResult prints a mapping attempt's outcome and translates it to
// the script-friendly exit code.
func reportResult(res *mapper.Result, g *dfg.Graph, o runOpts, timeout, elapsed time.Duration) (int, error) {
	switch res.Status {
	case ilp.Infeasible:
		fmt.Printf("status: infeasible (proven in %v)", elapsed.Round(time.Millisecond))
		if res.Reason != "" {
			fmt.Printf(" — %s", res.Reason)
		}
		fmt.Println()
		return exitInfeasible, nil
	case ilp.Unknown:
		fmt.Printf("status: timeout after %v (T)\n", timeout)
		if res.Reason != "" {
			fmt.Printf("  %s\n", res.Reason)
		}
		if explain := explainUnknown(res); explain != "" {
			fmt.Printf("  %s\n", explain)
		}
		return exitUnknown, nil
	default:
		fmt.Printf("status: %s in %v (%d vars, %d constraints, routing cost %d)\n",
			res.Status, elapsed.Round(time.Millisecond),
			res.Vars, res.Constraints, res.Mapping.RoutingCost())
		return postProcess(res.Mapping, g, o)
	}
}

// explainUnknown says where an undecided solve's budget went: the
// model's size and how far the search got. It reports only what the
// result holds, so a sweep cancelled before any model was built, or a
// solve cancelled before its search started, yields no invented zeros.
func explainUnknown(res *mapper.Result) string {
	var parts, search []string
	if res.Vars > 0 {
		parts = append(parts, fmt.Sprintf("model: %d vars, %d constraints", res.Vars, res.Constraints))
	}
	for _, k := range []string{"conflicts", "propagations", "restarts"} {
		if n, ok := res.SolverStats[k]; ok {
			search = append(search, fmt.Sprintf("%d %s", n, k))
		}
	}
	if len(search) > 0 {
		parts = append(parts, "search: "+strings.Join(search, ", "))
	}
	return strings.Join(parts, "; ")
}

// postProcess prints a found mapping (unless quiet), optionally its floor
// plan and fabric configuration, and validates it by simulation, for
// exact and annealed mappings alike.
func postProcess(m *mapper.Mapping, g *dfg.Graph, o runOpts) (int, error) {
	if !o.quiet {
		if err := m.Write(os.Stdout); err != nil {
			return exitError, err
		}
	}
	if o.floorplan {
		if err := visual.WriteGrid(os.Stdout, m); err != nil {
			return exitError, err
		}
	}
	if !o.showCfg && !o.validate {
		return exitOK, nil
	}
	cfg, err := config.Extract(m)
	if err != nil {
		return exitError, err
	}
	if o.showCfg {
		if err := cfg.Render(os.Stdout); err != nil {
			return exitError, err
		}
	}
	if o.validate {
		if !g.Acyclic() {
			return exitError, fmt.Errorf("-validate requires an acyclic DFG")
		}
		inputs := sim.DefaultInputs(g, 7)
		mem := map[uint32]uint32{}
		for a := uint32(0); a < 64; a++ {
			mem[a] = 2*a + 1
		}
		if err := sim.Validate(m, inputs, mem); err != nil {
			return exitError, err
		}
		fmt.Println("validated: simulated configuration matches DFG evaluation")
	}
	return exitOK, nil
}

func loadDFG(dfgFile, benchName string) (*dfg.Graph, error) {
	switch {
	case dfgFile != "" && benchName != "":
		return nil, fmt.Errorf("specify -dfg or -benchmark, not both")
	case dfgFile != "":
		f, err := os.Open(dfgFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dfg.Parse(f)
	case benchName != "":
		return bench.Get(benchName)
	default:
		return nil, fmt.Errorf("no application: use -dfg <file> or -benchmark <name>")
	}
}
