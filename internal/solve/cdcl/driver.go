package cdcl

import (
	"context"

	"cgramap/internal/ilp"
)

// backend is one way of running CDCL search over a loaded model. Every
// solve goes through drive, which sequences the same phases for both
// front ends — load, probe, search, tighten the objective bound, report —
// so they differ only in their backend:
//
//   - Engine loads each model into a fresh solver of its own;
//   - ParallelEngine loads a gang of diversified solvers that race every
//     query and trade short learnt clauses.
type backend interface {
	// probe runs failed-literal probing before the first search: lTrue
	// continues, lFalse refutes the model, lUndef reports cancellation.
	probe(ctx context.Context) (lbool, error)
	// search decides the model under every bound added so far.
	search(ctx context.Context) (lbool, error)
	// model reads the assignment found by the last satisfiable search.
	model() ilp.Assignment
	// bound requires at most k of the objective literals to be true;
	// false means the bound is refuted outright.
	bound(k int) bool
	// stats reports the solve's counters.
	stats() map[string]int64
}

// drive decides (and, with an objective, optimises) m on the backend
// load returns. load receives m's objective as normalized literals over
// m's own variable indices. With an objective, drive repeatedly tightens
// an at-most bound on those literals until infeasibility proves the
// incumbent optimal — the standard linear-search optimisation loop on top
// of a complete feasibility engine. Context cancellation returns the best
// incumbent with status Feasible, or Unknown when none was found; either
// way the solution's Stats carry a "cancelled" marker.
func drive(ctx context.Context, m *ilp.Model, load func(objLits []lit) (backend, error)) (*ilp.Solution, error) {
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
	b, err := load(objLits)
	if err != nil {
		return nil, err
	}
	var best ilp.Assignment
	bestObj := 0
	finish := func(status ilp.Status, cancelled bool) (*ilp.Solution, error) {
		st := b.stats()
		if cancelled {
			st["cancelled"] = 1
		}
		return &ilp.Solution{Status: status, Assignment: best, Objective: bestObj, Stats: st}, nil
	}

	switch res, err := b.probe(ctx); {
	case err != nil:
		return nil, err
	case res == lFalse:
		return finish(ilp.Infeasible, false)
	case res == lUndef:
		return finish(ilp.Unknown, true)
	}
	for {
		res, err := b.search(ctx)
		if err != nil {
			return nil, err
		}
		switch res {
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
		best = b.model()
		bestObj = best.Eval(m.Objective)
		if len(m.Objective) == 0 {
			return finish(ilp.Optimal, false)
		}
		// Count of true objective literals achieved; zero cannot improve.
		litCount := bestObj - offset
		if litCount == 0 || !b.bound(litCount-1) {
			return finish(ilp.Optimal, false)
		}
	}
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

// stats reports the solver's search counters and database sizes.
func (s *solver) stats() map[string]int64 {
	return map[string]int64{
		"conflicts":    s.conflicts,
		"decisions":    s.decisions,
		"propagations": s.propagations,
		"restarts":     s.restarts,
		"clauses":      int64(s.nClauses),
		"cards":        int64(len(s.cards)),
		"learnts":      int64(len(s.learnts)),
	}
}

// assignment reads the values of the first n variables after a
// satisfiable search.
func (s *solver) assignment(n int) ilp.Assignment {
	a := make(ilp.Assignment, n)
	for v := range a {
		a[v] = s.vals[mkLit(v, false)] == lTrue
	}
	return a
}
