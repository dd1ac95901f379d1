package mapper

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cgramap/internal/budget"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mrrg"
	"cgramap/internal/solve/cdcl"
)

// ObjectiveMode selects the ILP objective.
type ObjectiveMode int

const (
	// Feasibility solves the pure mapping-existence question — what
	// the paper's Table 2 reports.
	Feasibility ObjectiveMode = iota
	// MinimizeRouting minimises total routing-resource usage (paper
	// eq. 10).
	MinimizeRouting
)

// Options configures the ILP mapper. It is also the one value every
// layer above the mapper — MapAuto, the experiment and frontier sweeps,
// the job service and the command-line tools (see Flags) — passes the
// speed knobs in.
//
// The speed knobs are Workers, Seed, Symmetry, Budget and Artifacts.
// They change how fast an answer arrives, never what it is: feasibility
// status, minimal II and optimal objective are the same for
// every setting. That is the fingerprint-exemption rule: job fingerprints
// and result caches key on the instance, the engine and Objective only.
type Options struct {
	// Solver is the ILP engine; nil selects the CDCL engine.
	Solver ilp.Solver
	// Objective selects feasibility or routing minimisation.
	Objective ObjectiveMode
	// DisablePruning turns off sub-value reachability pruning and
	// placement refinement (for the ablation study); the formulation
	// then carries R variables for every routing node.
	DisablePruning bool
	// DisablePresolve turns off the counting presolve, forcing even
	// pigeonhole-infeasible instances through the solver.
	DisablePresolve bool
	// Workers requests parallelism of this width: Map runs a
	// clause-sharing CDCL gang this wide (when Solver is nil), and
	// MapAuto's II window holds this many candidate IIs at once. Values
	// <= 1 give width 1, a sequential search and sweep; with Workers <= 1
	// and a fixed Seed every run is bit-identical.
	Workers int
	// Seed fixes the solver's search trajectory (and derives the
	// diversified trajectories of a parallel gang).
	Seed int64
	// Symmetry controls symmetry-breaking constraints: verified fabric
	// automorphisms (arch.Discover) become lex-leader and orbit-fixing
	// constraints, and interchangeable commutative operands are ordered
	// (symmetry.go). The default SymmetryAuto resolves to on for
	// MapAuto sweeps and off for direct Map/BuildModel calls. Symmetry
	// breaking removes symmetric duplicates from the search space but
	// never an entire solution orbit.
	Symmetry SymmetryMode
	// Budget pays for parallelism beyond the caller's own goroutine;
	// nil selects the process-wide budget.Global pool.
	Budget *budget.Pool
	// Artifacts, when non-nil, caches the intermediate artifacts
	// between parsing and solving: generated MRRGs and formulation
	// templates, both content-addressed by structural fingerprints.
	// Map and BuildModel then stamp per-II models from a shared
	// template instead of re-deriving the II-independent analysis, and
	// MapAuto additionally reuses cached MRRGs across the ladder.
	// Stamped formulations are byte-identical to scratch ones.
	Artifacts *ArtifactCache
	// MapWith, when non-nil, replaces Map's own build-and-solve
	// pipeline — for every caller of Map, including MapAuto's rungs and
	// the experiment and frontier sweeps. It is the seam that lets a
	// remote daemon's client slot in above the formulation without an
	// import cycle; it does not fit behind ilp.Solver. Map clears the
	// field before invoking it, so the replacement may itself call Map
	// with the options it receives.
	MapWith MapFunc
}

// engine returns the solver Map runs: Solver when set, otherwise the CDCL
// engine with the knobs' gang width, seed and budget.
func (o Options) engine() ilp.Solver {
	if o.Solver != nil {
		return o.Solver
	}
	return &cdcl.Engine{Workers: o.Workers, Seed: o.Seed, Budget: o.Budget}
}

// MapFunc is the signature of Map. Orchestrators provide drop-in
// replacements (see Options.MapWith).
type MapFunc func(ctx context.Context, g *dfg.Graph, mg *mrrg.Graph, opts Options) (*Result, error)

// Result reports one mapping attempt.
type Result struct {
	// Status is Optimal/Feasible when a mapping was found, Infeasible
	// when mapping is provably impossible, Unknown on solver timeout
	// (the paper's "T" entries).
	Status ilp.Status
	// Mapping is the decoded, verified mapping (nil unless feasible).
	Mapping *Mapping
	// Reason explains construction-time infeasibility (presolve or
	// reachability), empty when the solver decided the instance.
	Reason string
	// Vars and Constraints describe the solved model size.
	Vars, Constraints int
	// SolverStats carries engine counters.
	SolverStats map[string]int64
	// BuildTime and SolveTime split the runtime.
	BuildTime, SolveTime time.Duration
}

// Feasible reports whether a mapping was found.
func (r *Result) Feasible() bool {
	return r.Status == ilp.Optimal || r.Status == ilp.Feasible
}

// BuildModel constructs the ILP model for mapping g onto mg without
// solving it. It returns the model (nil when construction already proved
// infeasibility, together with the reason).
func BuildModel(g *dfg.Graph, mg *mrrg.Graph, opts Options) (*ilp.Model, string, error) {
	if opts.Symmetry == SymmetryAuto {
		opts.Symmetry = SymmetryOff
	}
	t, err := templateFor(g, mg.Arch, opts)
	if err != nil {
		return nil, "", err
	}
	return t.BuildModel(mg)
}

// Map places and routes g onto mg by building and solving the paper's
// ILP formulation, then decodes and independently verifies the result.
// With opts.MapWith set, Map hands the request to it instead.
func Map(ctx context.Context, g *dfg.Graph, mg *mrrg.Graph, opts Options) (*Result, error) {
	if fn := opts.MapWith; fn != nil {
		opts.MapWith = nil
		return fn(ctx, g, mg, opts)
	}
	if opts.Symmetry == SymmetryAuto {
		// A single fixed-II solve is as likely to be an easy SAT
		// instance (where lex chains are pure overhead) as a hard
		// proof; only explicit opt-in pays for them here.
		opts.Symmetry = SymmetryOff
	}
	solver := opts.engine()
	start := time.Now()
	t, err := templateFor(g, mg.Arch, opts)
	if err != nil {
		return nil, err
	}
	f, err := t.stamp(mg)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(start)
	if f.infeasible != "" {
		return &Result{Status: ilp.Infeasible, Reason: f.infeasible, BuildTime: buildTime}, nil
	}

	solveStart := time.Now()
	sol, err := solver.Solve(ctx, f.model)
	if err != nil {
		return nil, fmt.Errorf("mapper: solving %s: %w", f.model.Name, err)
	}
	res := &Result{
		Status:      sol.Status,
		Vars:        f.model.NumVars(),
		Constraints: len(f.model.Constraints),
		SolverStats: sol.Stats,
		BuildTime:   buildTime,
		SolveTime:   time.Since(solveStart),
	}
	if !res.Feasible() {
		return res, nil
	}
	m, err := f.decode(sol.Assignment)
	if err != nil {
		return nil, err
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("mapper: solver returned an invalid mapping: %w", err)
	}
	res.Mapping = m
	return res, nil
}

// MapContained runs Map under a per-call timeout for the sweeps, where
// one crashing or erroring instance must cost one undecided cell, not the
// whole run. A panic, or an error while ctx is still live, comes back as
// an Unknown result whose Reason records it ("mapper panicked: ..." or
// "mapper failed: ..."). Errors after ctx has ended are returned, so a
// cancelled sweep still aborts. elapsed is the call's wall clock.
func MapContained(ctx context.Context, g *dfg.Graph, mg *mrrg.Graph, opts Options, timeout time.Duration) (res *Result, elapsed time.Duration, err error) {
	callCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	start := time.Now()
	defer func() {
		elapsed = time.Since(start)
		if r := recover(); r != nil {
			res, err = &Result{Status: ilp.Unknown, Reason: fmt.Sprintf("mapper panicked: %v", r)}, nil
		}
	}()
	res, err = Map(callCtx, g, mg, opts)
	if err != nil && ctx.Err() == nil {
		return &Result{Status: ilp.Unknown, Reason: fmt.Sprintf("mapper failed: %v", err)}, 0, nil
	}
	return res, 0, err
}

// decode converts a satisfying assignment into a Mapping.
func (f *formulation) decode(a ilp.Assignment) (*Mapping, error) {
	if len(a) != f.model.NumVars() {
		// A wrong-shaped assignment (e.g. a truncated solution from a
		// misbehaving engine) must be rejected here, not crash the
		// variable lookups below.
		return nil, fmt.Errorf("mapper: solver returned %d-variable assignment for %d-variable model",
			len(a), f.model.NumVars())
	}
	m := &Mapping{
		DFG:       f.g,
		MRRG:      f.mg,
		Placement: make([]int, f.g.NumOps()),
		Routes:    make([][][]int, f.g.NumVals()),
	}
	for _, op := range f.g.Ops() {
		m.Placement[op.ID] = -1
		for p, v := range f.fvar[op.ID] {
			if a[v] {
				if m.Placement[op.ID] >= 0 {
					return nil, fmt.Errorf("mapper: op %s placed twice", op.Name)
				}
				m.Placement[op.ID] = p
			}
		}
		if m.Placement[op.ID] < 0 {
			return nil, fmt.Errorf("mapper: op %s unplaced in solution", op.Name)
		}
	}
	for _, val := range f.g.Vals() {
		m.Routes[val.ID] = make([][]int, len(val.Uses))
		for k := range val.Uses {
			var nodes []int
			for i, v := range f.r3[val.ID][k] {
				if a[v] {
					nodes = append(nodes, i)
				}
			}
			sort.Ints(nodes)
			m.Routes[val.ID][k] = m.trimRoute(val, k, nodes)
		}
	}
	return m, nil
}

// trimRoute reduces a sub-value's assigned node set to an actual
// source-to-sink path. In feasibility mode the solver may set routing
// variables beyond the useful path (nothing in the formulation rewards
// sparseness without the objective); the extra nodes are legal but noisy,
// so reporting keeps only a breadth-first path from the producer's output
// to the sink's operand port. Falls back to the full set if no path is
// found (Verify will then report the real problem).
func (m *Mapping) trimRoute(val *dfg.Value, k int, nodes []int) []int {
	mg := m.MRRG
	u := val.Uses[k]
	src := mg.Nodes[m.Placement[val.Def.ID]].OutNode
	sinkFU := m.Placement[u.Op.ID]
	inSet := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		inSet[n] = true
	}
	if !inSet[src] {
		return nodes
	}
	prev := map[int]int{src: -1}
	queue := []int{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		node := mg.Nodes[n]
		if node.OperandPort >= 0 && node.FUNode == sinkFU && mg.CompatibleSink(node, u.Op, u.Operand) {
			var path []int
			for c := n; c != -1; c = prev[c] {
				path = append(path, c)
			}
			// Reverse into source-to-sink hop order.
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return path
		}
		for _, f := range node.Fanouts {
			if _, seen := prev[f]; !seen && inSet[f] {
				prev[f] = n
				queue = append(queue, f)
			}
		}
	}
	return nodes
}
