// Command cgrabench is the repository's end-to-end benchmark. It drives
// the mapper stack through the public APIs its users call, on four
// workloads:
//
//   - table2: the paper's Table 2 grid (19 kernels x 8 fabrics) through
//     exper.RunSweep at a fixed per-cell budget;
//   - minii: minimal-II ladders (mapper.MapAuto) on 3x3 fabrics;
//   - formulate: the formulation and LP-export path (cgramap -lp);
//   - service: closed-loop traffic against an in-process job server.
//
// Every answer is checked: verdicts against a committed answer key,
// mappings by re-verification and simulation. The end-to-end metrics of
// a run come from an untraced phase; with --trace 1 a second, traced
// phase times every layer from outside, at its public function, and the
// per-layer metrics are reported as self times.
//
// Run it from the repository root through its build script:
//
//	bash cmd/cgrabench/run.sh --workload table2 --seed 1 --seconds 25 --trace 0
//
// Each metric is printed as "<workload> <metric> <value> <unit>"; the
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is 0 when every answer
// checked out, 1 when one did not and 2 when the benchmark could not run.
// See README.md for the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run builds its inputs, each time from a
// collected heap; setup_s is the median, so a few slow repetitions do
// not move it.
const setupReps = 15

// traceDir is where a traced run writes its spans, one
// <workload>-seed<seed>.json file per workload.
const traceDir = ".bench_build/traces"

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string
	answers  *answerKey
	// smoke shrinks every workload to a handful of inputs: two Table 2
	// cells, one ladder, two models and ten service requests. Only the
	// tests set it.
	smoke bool
}

// budget is the measuring time of one phase: the whole run, or half of
// it when a traced phase follows.
func (c *config) budget() time.Duration {
	d := time.Duration(c.seconds) * time.Second
	if c.trace {
		d /= 2
	}
	return d
}

// runner is one benchmark workload.
type runner interface {
	// setup builds the inputs the workload's operations take: kernels,
	// fabric specs or fabrics, the service's request pool, and a server
	// brought up to healthy as the service's measure does before its clock
	// starts. Work moved from the operations into these inputs shows in
	// setup_s. It is called setupReps times on fresh runners, each timed;
	// the last runner is the one measured.
	setup(cfg *config) error
	// measure runs the workload for about budget. With a non-nil tracer
	// it records a span around every call into a layer.
	measure(ctx context.Context, budget time.Duration, tr *tracer) (*phase, error)
}

var workloads = []struct {
	name string
	make func() runner
}{
	{"table2", func() runner { return &table2{} }},
	{"minii", func() runner { return &minii{} }},
	{"formulate", func() runner { return &formulate{} }},
	{"service", func() runner { return &serviceLoad{} }},
}

func main() {
	cfg := config{traceDir: traceDir}
	var trace int
	var writeAnswers string
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: table2 | minii | formulate | service | all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs (the service workload's traffic)")
	flag.IntVar(&cfg.seconds, "seconds", 25, "measuring time per workload, in seconds")
	flag.IntVar(&trace, "trace", 0, "1: add a traced phase and report per-layer metrics instead of end-to-end ones")
	flag.StringVar(&writeAnswers, "write-answers", "", "generate the answer key into this file instead of benchmarking")
	flag.Parse()

	if writeAnswers != "" {
		if err := generateAnswers(writeAnswers); err != nil {
			fmt.Fprintln(os.Stderr, "cgrabench:", err)
			os.Exit(2)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "cgrabench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "cgrabench: --seconds must be at least 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	key, err := loadAnswers()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgrabench:", err)
		os.Exit(2)
	}
	cfg.answers = key
	os.Exit(run(&cfg, os.Stdout, os.Stderr))
}

// run executes the selected workloads and prints their metrics. It
// returns the process exit code.
func run(cfg *config, stdout, stderr io.Writer) int {
	var selected []string
	for _, w := range workloads {
		if cfg.workload == "all" || cfg.workload == w.name {
			selected = append(selected, w.name)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "cgrabench: unknown workload %q\n", cfg.workload)
		return 2
	}
	fmt.Fprintf(stdout, "# cgrabench seed=%d seconds=%d trace=%t nproc=%d go=%s\n",
		cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.Version())

	result := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Metrics: map[string]map[string]any{}}
	for _, name := range selected {
		rep, err := runWorkload(cfg, name, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "cgrabench: %s: %v\n", name, err)
			return 2
		}
		result.Attempted += rep.attempted
		result.Failed += rep.failed
		for _, m := range rep.metrics {
			fmt.Fprintf(stdout, "%s %s %g %s\n", name, m.name, m.value, m.unit)
			key := m.name
			if len(selected) > 1 {
				key = name + "." + m.name
			}
			result.Metrics[key] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	result.Correct = result.Failed == 0
	blob, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "cgrabench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(blob))
	if !result.Correct {
		return 1
	}
	return 0
}

type report struct {
	attempted, failed int
	metrics           []metricValue
}

// runWorkload sets one workload up, measures it and derives its metrics.
func runWorkload(cfg *config, name string, stderr io.Writer) (*report, error) {
	var newRunner func() runner
	for _, wl := range workloads {
		if wl.name == name {
			newRunner = wl.make
		}
	}
	var w runner
	var setups []float64
	for i := 0; i < setupReps; i++ {
		w = newRunner()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(cfg); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	ctx := context.Background()
	heap := watchHeap()
	plain, err := w.measure(ctx, cfg.budget(), nil)
	peak := heap.stop()
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.tally(plain, name, stderr)
	if !cfg.trace {
		rep.metrics = endToEndMetrics(plain, median(setups), peak)
		return rep, nil
	}

	tr := newTracer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traced, err := w.measure(ctx, cfg.budget(), tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	rep.tally(traced, name, stderr)
	tr.add("runtime.gc_pause_ns", float64(after.PauseTotalNs-before.PauseTotalNs))
	tr.add("runtime.alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
	tr.add("trace.plain_ops_per_s", throughput(plain))
	tr.add("trace.traced_ops_per_s", throughput(traced))
	rep.metrics = layerMetrics(tr, float64(len(traced.ops)))

	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	if err := tr.write(path, name, cfg.seed); err != nil {
		return nil, err
	}
	return rep, nil
}

// tally counts a phase's operations and reports its failures.
func (r *report) tally(p *phase, name string, stderr io.Writer) {
	for _, o := range p.ops {
		r.attempted++
		if o.err != nil {
			r.failed++
			if r.failed <= 10 {
				fmt.Fprintf(stderr, "cgrabench: %s: FAIL %v\n", name, o.err)
			}
		}
	}
}
