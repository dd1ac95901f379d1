package workload

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
)

// FrontierSpec declares a mappability-frontier sweep: for every
// (fabric, II) pair, bisect the kernel-family ladder between MinN and
// MaxN to find where mapping flips from feasible to
// infeasible-or-timeout.
type FrontierSpec struct {
	// Family selects the kernel ladder; Seed parameterises the Gen
	// family (and is recorded so reports are reproducible).
	Family Family `json:"family"`
	Seed   int64  `json:"seed"`
	// MinN and MaxN bracket the ladder rungs probed (inclusive).
	MinN int `json:"min_n"`
	MaxN int `json:"max_n"`
	// Fabrics are the architectures swept.
	Fabrics []arch.GridSpec `json:"fabrics"`
	// IIs are the context counts tried per fabric (default: each
	// fabric's own context count).
	IIs []int `json:"iis"`
}

func (s FrontierSpec) validate() error {
	switch {
	case s.MinN < 1:
		return fmt.Errorf("workload: frontier MinN %d < 1", s.MinN)
	case s.MaxN < s.MinN:
		return fmt.Errorf("workload: frontier MaxN %d < MinN %d", s.MaxN, s.MinN)
	case len(s.Fabrics) == 0:
		return fmt.Errorf("workload: frontier needs at least one fabric")
	}
	for _, ii := range s.IIs {
		if ii < 1 {
			return fmt.Errorf("workload: frontier II %d < 1", ii)
		}
	}
	return nil
}

// FrontierOptions configures how each probe is solved.
type FrontierOptions struct {
	// Timeout bounds each probe's wall clock (default 10s). A probe
	// that times out counts as unmappable for the bisection: the
	// frontier charts what the stack decides within budget, mirroring
	// the paper's "T" cells. Reports label such a rung undecided.
	Timeout time.Duration
	// Mapper carries per-probe mapper options. Set Mapper.MapWith (a
	// service client's MapFunc) to route probes to a remote daemon.
	Mapper mapper.Options
	// Progress, when non-nil, receives one line per probe.
	Progress io.Writer
}

// Probe is one solved frontier cell.
type Probe struct {
	N      int        `json:"n"`
	Kernel string     `json:"kernel"`
	Status ilp.Status `json:"status"`
	Reason string     `json:"reason,omitempty"`
	// Elapsed is kept out of the serialised report so fixed-seed runs
	// are byte-identical across machines.
	Elapsed time.Duration `json:"-"`
}

// Feasible reports whether the probe found a mapping.
func (p Probe) Feasible() bool { return p.Status == ilp.Optimal || p.Status == ilp.Feasible }

// Boundary is the bisection result for one (fabric, II) pair.
type Boundary struct {
	Fabric string `json:"fabric"`
	II     int    `json:"ii"`
	// MaxFeasibleN is the largest rung found mappable (0: even MinN is
	// not); MinInfeasibleN is the smallest rung not found mappable
	// within budget (0: even MaxN maps). That rung's probe may be a
	// proof (status Infeasible) or a timeout (status Unknown). When both
	// are set they are adjacent probes bracketing the frontier.
	MaxFeasibleN   int `json:"max_feasible_n"`
	MinInfeasibleN int `json:"min_infeasible_n"`
	// Probes records every cell solved, in probe order.
	Probes []Probe `json:"probes"`
}

// Bracketed reports whether this boundary observed both a feasible and
// an unmappable (or undecided) rung — a frontier crossing within budget.
func (b Boundary) Bracketed() bool { return b.MaxFeasibleN > 0 && b.MinInfeasibleN > 0 }

// provenAt reports whether the probe at rung n proved infeasibility.
func (b Boundary) provenAt(n int) bool {
	return slices.ContainsFunc(b.Probes, func(p Probe) bool { return p.N == n && p.Status == ilp.Infeasible })
}

// Frontier is a full sweep result.
type Frontier struct {
	Family     Family     `json:"family"`
	Seed       int64      `json:"seed"`
	MinN       int        `json:"min_n"`
	MaxN       int        `json:"max_n"`
	Boundaries []Boundary `json:"boundaries"`
}

// RunFrontier charts the mappability frontier described by spec. The
// bisection assumes ladder monotonicity (larger rungs are at most as
// mappable as smaller ones); per-probe panics and timeouts are
// contained into Unknown probes, exactly like the experiment sweeps, so
// one wedged instance costs one cell rather than the run. Only a
// cancelled sweep context aborts.
func RunFrontier(ctx context.Context, spec FrontierSpec, opts FrontierOptions) (*Frontier, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	front := &Frontier{Family: spec.Family, Seed: spec.Seed, MinN: spec.MinN, MaxN: spec.MaxN}
	kernels := make(map[int]*dfg.Graph)
	kernel := func(n int) (*dfg.Graph, error) {
		if g, ok := kernels[n]; ok {
			return g, nil
		}
		g, err := Kernel(spec.Family, n, spec.Seed)
		if err != nil {
			return nil, err
		}
		kernels[n] = g
		return g, nil
	}
	for _, fs := range spec.Fabrics {
		iis := spec.IIs
		if len(iis) == 0 {
			// Default: each fabric solved at its own context count.
			iis = []int{fs.Contexts}
		}
		for _, ii := range iis {
			gs := fs
			gs.Contexts = ii
			device, err := buildDevice(gs, opts.Mapper.Artifacts)
			if err != nil {
				return nil, fmt.Errorf("workload: building %s: %w", gs.Name(), err)
			}
			b, err := bisect(ctx, device, gs.Name(), ii, spec, opts, kernel)
			if err != nil {
				return nil, err
			}
			front.Boundaries = append(front.Boundaries, *b)
		}
	}
	return front, nil
}

// buildDevice generates the MRRG for one fabric/II cell of the sweep,
// through the artifact cache when the sweep carries one (fabrics
// revisited at several IIs then share their per-II graphs).
func buildDevice(gs arch.GridSpec, cache *mapper.ArtifactCache) (*mrrg.Graph, error) {
	a, err := arch.Grid(gs)
	if err != nil {
		return nil, err
	}
	if cache != nil {
		return cache.MRRG(a)
	}
	return mrrg.Generate(a)
}

// bisect runs the monotone search for one (fabric, II) pair.
func bisect(ctx context.Context, device *mrrg.Graph, fabricName string, ii int,
	spec FrontierSpec, opts FrontierOptions, kernel func(int) (*dfg.Graph, error)) (*Boundary, error) {
	b := &Boundary{Fabric: fabricName, II: ii}
	probe := func(n int) (bool, error) {
		g, err := kernel(n)
		if err != nil {
			return false, err
		}
		p, err := runProbe(ctx, g, device, n, opts)
		if err != nil {
			return false, err
		}
		b.Probes = append(b.Probes, p)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-22s ii=%d n=%-5d %s  %8.1fms  %s\n",
				fabricName, ii, n, p.Status.Mark(),
				float64(p.Elapsed.Microseconds())/1000, p.Reason)
		}
		return p.Feasible(), nil
	}

	lo, hi := spec.MinN, spec.MaxN
	ok, err := probe(lo)
	if err != nil {
		return nil, err
	}
	if !ok {
		b.MinInfeasibleN = lo
		return b, nil
	}
	b.MaxFeasibleN = lo
	if hi == lo {
		return b, nil
	}
	ok, err = probe(hi)
	if err != nil {
		return nil, err
	}
	if ok {
		b.MaxFeasibleN = hi
		return b, nil
	}
	b.MinInfeasibleN = hi
	for hi-lo > 1 {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		mid := lo + (hi-lo)/2
		ok, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if ok {
			lo = mid
			b.MaxFeasibleN = mid
		} else {
			hi = mid
			b.MinInfeasibleN = mid
		}
	}
	return b, nil
}

// runProbe maps one kernel onto one device under the probe deadline,
// containing panics and mapper errors into Unknown cells.
func runProbe(ctx context.Context, g *dfg.Graph, device *mrrg.Graph, n int, opts FrontierOptions) (Probe, error) {
	res, elapsed, err := mapper.MapContained(ctx, g, device, opts.Mapper, opts.Timeout)
	if err != nil {
		return Probe{}, fmt.Errorf("workload: probing %s: %w", g.Name, err)
	}
	return Probe{N: n, Kernel: g.Name, Status: res.Status, Reason: res.Reason, Elapsed: elapsed}, nil
}
