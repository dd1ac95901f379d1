package cdcl

import (
	"context"

	"cgramap/internal/budget"
	"cgramap/internal/ilp"
)

// Engine solves unit-coefficient 0-1 ILP models with a gang of k CDCL
// lanes, ManySAT-style: each lane runs the same complete search over the
// same formula from a different trajectory (seed, VSIDS decay, saved
// phases, restart schedule), and lanes trade short learnt clauses
// through a bounded pool at restarts. The first definitive answer wins
// and cancels the rest; every shared clause is a consequence of the
// formula, so the gang is as complete as one solver.
//
// k is 1 plus the tokens won from Budget for Workers-1 further lanes, so
// layered parallelism narrows instead of oversubscribing the machine. At
// k = 1 the one lane runs on the caller's goroutine with the solver
// defaults and nothing shared: the sequential search, bit-identical for
// a fixed Seed. Wider gangs race, so their stats vary run to run, but
// not the answer (nor, with an objective, the optimal value).
//
// The zero value is ready to use. It implements ilp.Solver.
type Engine struct {
	// Workers is the requested gang width (values <= 1 run one lane).
	Workers int
	// Seed, when non-zero, randomizes lane 0's search trajectory:
	// variable activities get a small jitter (breaking ties under the
	// model's branch priorities) and saved phases start random. The
	// other lanes derive their seeds from it, so a fixed Seed makes the
	// whole gang's trajectories reproducible.
	Seed int64
	// Budget pays for lanes beyond the first; nil selects the
	// process-wide budget.Global pool.
	Budget *budget.Pool

	// Test seams: noProbe turns off root-level failed-literal probing
	// (see probe); shareMaxLen overrides the default length cap (8) on
	// exported clauses; conflictCap, when positive, stops each lane's
	// search after that many conflicts as a cancellation would;
	// maxLearnts, when positive, overrides the learnt-clause limit above
	// which restarts reduce the clause database.
	noProbe     bool
	shareMaxLen int
	conflictCap int64
	maxLearnts  int
}

// New returns a ready Engine.
func New() *Engine { return &Engine{} }

var _ ilp.Solver = (*Engine)(nil)

// Solve decides (and, with an objective, optimises) the model. With an
// objective, it repeatedly tightens an at-most bound on the objective's
// literals until infeasibility proves the incumbent optimal — the
// standard linear-search optimisation loop on top of a complete
// feasibility engine; the gang lives for the whole solve, so each bound
// is one more race over the same lanes. Context cancellation returns the
// best incumbent with status Feasible, or Unknown when none was found;
// either way the solution's Stats carry a "cancelled" marker. Gangs
// wider than one report per-lane counters summed plus clause-sharing
// statistics ("workers", "shared_exported", "shared_imported", "winner").
func (e *Engine) Solve(ctx context.Context, m *ilp.Model) (*ilp.Solution, error) {
	if ctx.Err() != nil {
		return &ilp.Solution{Status: ilp.Unknown, Stats: map[string]int64{"cancelled": 1}}, nil
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	objLits, offset, err := objectiveLits(m)
	if err != nil {
		return nil, err
	}
	pool := e.Budget
	if pool == nil {
		pool = budget.Global()
	}
	extra := pool.TryAcquire(e.Workers - 1)
	defer pool.Release(extra)
	g, err := e.load(m, objLits, 1+extra)
	if err != nil {
		return nil, err
	}

	var best ilp.Assignment
	bestObj := 0
	finish := func(status ilp.Status, cancelled bool) (*ilp.Solution, error) {
		st := g.stats()
		if cancelled {
			st["cancelled"] = 1
		}
		return &ilp.Solution{Status: status, Assignment: best, Objective: bestObj, Stats: st}, nil
	}
	if !g.workers[0].ok {
		return finish(ilp.Infeasible, false)
	}
	for {
		switch g.search(ctx) {
		case lUndef: // cancelled
			if best != nil {
				return finish(ilp.Feasible, true)
			}
			return finish(ilp.Unknown, true)
		case lFalse:
			if best != nil {
				// The tightened bound is infeasible: the incumbent is
				// optimal.
				return finish(ilp.Optimal, false)
			}
			return finish(ilp.Infeasible, false)
		}
		best = g.workers[g.winner].assignment()
		bestObj = best.Eval(m.Objective)
		if len(m.Objective) == 0 {
			return finish(ilp.Optimal, false)
		}
		// Count of true objective literals achieved; zero cannot improve.
		litCount := bestObj - offset
		if litCount == 0 || !g.bound(litCount-1) {
			return finish(ilp.Optimal, false)
		}
	}
}

// probeCheckInterval is how many candidates probe tries between context
// checks.
const probeCheckInterval = 64

// probe performs failed-literal probing at the root: each candidate
// variable is tentatively assigned true; if unit propagation derives a
// conflict, the variable is permanently false. Repeats to a fixpoint
// (bounded), which on CGRA-mapping models eliminates placements whose
// routing obligations are locally contradictory. Returns false when the
// model is proven infeasible outright. The context is checked after
// every failed literal and every probeCheckInterval candidates; on
// cancellation probing stops early and leaves the deadline to search.
func probe(ctx context.Context, s *solver, candidates []int) bool {
	if confl := s.propagate(); !confl.none() {
		s.ok = false
		return false
	}
	probed := 0
	for round := 0; round < 3; round++ {
		progress := false
		for _, v := range candidates {
			if s.assigned(v) {
				continue
			}
			if probed++; probed%probeCheckInterval == 0 && ctx.Err() != nil {
				return true
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(mkLit(v, false), noClause, -1)
			confl := s.propagate()
			s.cancelUntil(0)
			if confl.none() {
				continue
			}
			progress = true
			if !s.addFact(mkLit(v, true)) {
				return false
			}
			if c := s.propagate(); !c.none() {
				s.ok = false
				return false
			}
			if ctx.Err() != nil {
				return true // stop probing, let search handle the deadline
			}
		}
		if !progress {
			break
		}
	}
	return true
}

// probeCandidates lists the variables root probing tries: those the model
// gives a positive branching priority (placements, on mapping models).
func probeCandidates(m *ilp.Model) []int {
	var c []int
	for v := 0; v < m.NumVars(); v++ {
		if m.BranchPriority(ilp.Var(v)) > 0 {
			c = append(c, v)
		}
	}
	return c
}
