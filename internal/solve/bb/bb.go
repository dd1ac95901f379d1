// Package bb implements a textbook branch-and-bound ILP engine on top of
// the LP simplex relaxation (internal/lp). Unlike the CDCL engine it
// accepts arbitrary integer coefficients; it is the independent
// cross-check used to validate the default engine on reduced instances
// (see the ablation benches), mirroring how the paper positions ILP as
// the provably-correct reference for heuristic methods.
package bb

import (
	"context"
	"fmt"
	"math"

	"cgramap/internal/ilp"
	"cgramap/internal/lp"
)

// Engine is a branch-and-bound 0-1 ILP solver. The zero value is ready to
// use. It implements ilp.Solver.
type Engine struct{}

// New returns a ready Engine.
func New() *Engine { return &Engine{} }

var _ ilp.Solver = (*Engine)(nil)

const intTol = 1e-6

type searchState struct {
	m     *ilp.Model
	fixed []int8 // -1 unfixed, 0, 1
	best  ilp.Assignment
	obj   int
	nodes int64
	ctx   context.Context
	// cancelled is set when ctx fires; the search unwinds.
	cancelled bool
}

// Solve explores the 0-1 tree depth first, pruning with the LP
// relaxation bound. A cancelled solve returns the best incumbent with
// status Feasible (or Unknown when none was found) and a "cancelled"
// marker in Stats.
func (e *Engine) Solve(ctx context.Context, m *ilp.Model) (*ilp.Solution, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return &ilp.Solution{Status: ilp.Unknown, Stats: map[string]int64{"nodes": 0, "cancelled": 1}}, nil
	}
	st := &searchState{
		m:     m,
		fixed: make([]int8, m.NumVars()),
		ctx:   ctx,
	}
	for i := range st.fixed {
		st.fixed[i] = -1
	}
	if err := st.branch(); err != nil {
		return nil, err
	}
	stats := map[string]int64{"nodes": st.nodes}
	if st.cancelled {
		stats["cancelled"] = 1
	}
	switch {
	case st.cancelled && st.best != nil:
		return &ilp.Solution{Status: ilp.Feasible, Assignment: st.best, Objective: st.obj, Stats: stats}, nil
	case st.cancelled:
		return &ilp.Solution{Status: ilp.Unknown, Stats: stats}, nil
	case st.best != nil:
		return &ilp.Solution{Status: ilp.Optimal, Assignment: st.best, Objective: st.obj, Stats: stats}, nil
	default:
		return &ilp.Solution{Status: ilp.Infeasible, Stats: stats}, nil
	}
}

// relax builds and solves the LP relaxation under the current fixings.
func (st *searchState) relax() (*lp.Solution, error) {
	n := st.m.NumVars()
	p := &lp.Problem{NumVars: n, Obj: make([]float64, n), Cancel: st.ctx.Done()}
	for _, t := range st.m.Objective {
		p.Obj[t.Var] += float64(t.Coef)
	}
	for i, c := range st.m.Constraints {
		coefs := make([]float64, n)
		for _, t := range st.m.Terms(i) {
			coefs[t.Var] += float64(t.Coef)
		}
		var rel lp.Rel
		switch c.Rel {
		case ilp.LE:
			rel = lp.LE
		case ilp.GE:
			rel = lp.GE
		case ilp.EQ:
			rel = lp.EQ
		}
		p.Rows = append(p.Rows, lp.Constraint{Coefs: coefs, Rel: rel, RHS: float64(c.RHS)})
	}
	// Fixings as rows (the box already enforces [0,1]).
	for v, f := range st.fixed {
		if f < 0 {
			continue
		}
		coefs := make([]float64, n)
		coefs[v] = 1
		p.Rows = append(p.Rows, lp.Constraint{Coefs: coefs, Rel: lp.EQ, RHS: float64(f)})
	}
	return lp.Solve(p)
}

func (st *searchState) branch() error {
	if st.cancelled {
		return nil
	}
	st.nodes++
	if st.ctx.Err() != nil {
		st.cancelled = true
		return nil
	}
	sol, err := st.relax()
	if err != nil {
		return fmt.Errorf("bb: node %d: %w", st.nodes, err)
	}
	switch sol.Status {
	case lp.Infeasible:
		return nil
	case lp.Unbounded:
		return fmt.Errorf("bb: relaxation unbounded on a 0-1 box (internal error)")
	case lp.Cancelled:
		st.cancelled = true
		return nil
	}
	// Bound: with an integral objective, any integer solution in this
	// subtree costs at least ceil(lpObj).
	if st.best != nil && len(st.m.Objective) > 0 {
		if int(math.Ceil(sol.Obj-intTol)) >= st.obj {
			return nil
		}
	}
	// Integral?
	frac := -1
	fracDist := 0.0
	for v, x := range sol.X {
		d := math.Abs(x - math.Round(x))
		if d > intTol && d > fracDist {
			frac = v
			fracDist = d
		}
	}
	if frac < 0 {
		a := make(ilp.Assignment, len(sol.X))
		for v, x := range sol.X {
			a[v] = x > 0.5
		}
		if err := st.m.Check(a); err == nil {
			obj := a.Eval(st.m.Objective)
			if st.best == nil || obj < st.obj {
				st.best = a
				st.obj = obj
			}
			return nil
		}
		// Numerically integral but infeasible after rounding: fall
		// through and branch on the first unfixed variable to decide
		// exactly.
		for v, f := range st.fixed {
			if f < 0 {
				frac = v
				break
			}
		}
		if frac < 0 {
			return nil // fully fixed and infeasible
		}
	}
	// With no objective, the first integral feasible point finishes the
	// search (st.best short-circuits siblings).
	order := [2]int8{1, 0}
	if sol.X[frac] < 0.5 {
		order = [2]int8{0, 1}
	}
	for _, val := range order {
		if st.best != nil && len(st.m.Objective) == 0 {
			return nil
		}
		st.fixed[frac] = val
		if err := st.branch(); err != nil {
			return err
		}
		st.fixed[frac] = -1
		if st.cancelled {
			return nil
		}
	}
	return nil
}
