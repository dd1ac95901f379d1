package mapper

import (
	"context"
	"fmt"

	"cgramap/internal/arch"
	"cgramap/internal/budget"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mrrg"
	"cgramap/internal/sched"
)

// AutoResult reports an automatic II search.
type AutoResult struct {
	// II is the initiation interval (context count) of the returned
	// mapping.
	II int
	// Result is the successful mapping attempt at that II.
	*Result
	// Tried records the status of every attempted II in order.
	Tried []ilp.Status
}

// MapAuto searches for the smallest initiation interval that maps g onto
// the architecture, in the DRESC tradition: start at the
// modulo-scheduling lower bound MII and increase the context count until
// the ILP mapper finds a mapping (or maxII is exceeded). Because the ILP
// answers are proofs, the result is the provably minimal II for this
// architecture and kernel — the quantity a CGRA compiler ultimately
// optimises.
//
// With opts.Workers > 1 the sweep speculates: up to Workers candidate
// IIs solve concurrently (extra attempts beyond the first pay tokens
// from opts.Budget), and the search still returns the smallest feasible
// II — a higher II finishing first only wins once every lower II has
// been proven infeasible or timed out, exactly as in the sequential
// sweep. A cancelled context yields status Unknown, never Infeasible:
// an interrupted search proves nothing.
//
// The architecture is taken as a template: its Contexts field is
// overridden by each attempt. Every FU's own initiation interval must
// divide the attempted context count, so IIs that violate that are
// skipped.
func MapAuto(ctx context.Context, g *dfg.Graph, a *arch.Arch, maxII int, opts Options) (*AutoResult, error) {
	if maxII < 1 {
		return nil, fmt.Errorf("mapper: maxII %d < 1", maxII)
	}
	if opts.Symmetry == SymmetryAuto {
		// The ladder's cost is dominated by proving low IIs infeasible
		// — the regime where symmetry breaking pays — so auto resolves
		// to on. The resolved mode flows through every attempt and
		// speculative lane below.
		opts.Symmetry = SymmetryOn
	}
	if opts.Artifacts == nil {
		// Even without a caller-provided cache, the ladder itself is a
		// reuse opportunity: one template serves every II, and the
		// MII-probe MRRG below is shared with the template's own MII
		// bound. The ephemeral cache dies with the sweep.
		opts.Artifacts = NewArtifactCache(maxII + 2)
	}
	start := 1
	single := *a
	single.Contexts = 1
	var mg1 *mrrg.Graph
	if mg, err := opts.Artifacts.MRRG(&single); err == nil {
		mg1 = mg
		if mii, err := sched.MII(g, mg1); err == nil {
			start = mii
		}
	}
	if start > maxII {
		return &AutoResult{
			Result: &Result{Status: ilp.Infeasible,
				Reason: fmt.Sprintf("minimum initiation interval %d exceeds maxII %d", start, maxII)},
		}, nil
	}
	if opts.Workers > 1 {
		return mapAutoSpeculative(ctx, g, a, start, maxII, opts, mg1)
	}
	auto := &AutoResult{}
	for ii := start; ii <= maxII; ii++ {
		res, err := mapAtII(ctx, g, a, ii, opts, mg1)
		if err != nil {
			return nil, err
		}
		auto.Tried = append(auto.Tried, res.Status)
		if res.Feasible() {
			auto.II = ii
			auto.Result = res
			return auto, nil
		}
		if ctx.Err() != nil {
			// An interrupted sweep is inconclusive regardless of what
			// the attempts so far reported.
			auto.Result = &Result{Status: ilp.Unknown,
				Reason: fmt.Sprintf("cancelled during II=%d", ii)}
			return auto, nil
		}
	}
	auto.Result = exhaustedResult(auto.Tried, maxII)
	return auto, nil
}

// mapAtII runs one mapping attempt at the given context count, reusing
// the already-generated single-context MRRG when ii == 1. An MRRG
// generation failure (FU IIs incompatible with this context count) is an
// infeasible attempt, not an error.
func mapAtII(ctx context.Context, g *dfg.Graph, a *arch.Arch, ii int, opts Options, mg1 *mrrg.Graph) (*Result, error) {
	mg := mg1
	if ii != 1 || mg == nil {
		attempt := *a
		attempt.Contexts = ii
		var err error
		if opts.Artifacts != nil {
			mg, err = opts.Artifacts.MRRG(&attempt)
		} else {
			mg, err = mrrg.Generate(&attempt)
		}
		if err != nil {
			return &Result{Status: ilp.Infeasible, Reason: err.Error()}, nil
		}
	}
	return Map(ctx, g, mg, opts)
}

// exhaustedResult summarises a sweep that ran out of IIs: provably
// infeasible only if every attempt ended in a proof.
func exhaustedResult(tried []ilp.Status, maxII int) *Result {
	for _, s := range tried {
		if s == ilp.Unknown {
			return &Result{Status: ilp.Unknown,
				Reason: fmt.Sprintf("undecided up to II=%d (solver timeouts)", maxII)}
		}
	}
	return &Result{Status: ilp.Infeasible,
		Reason: fmt.Sprintf("no feasible mapping up to II=%d", maxII)}
}

// mapAutoSpeculative is the concurrent II sweep: a sliding window of at
// most opts.Workers candidate IIs in flight, lowest first. The first
// in-flight attempt is free (the caller was going to solve it anyway);
// each additional one must win a token from the worker budget, so
// speculation narrows to sequential when the machine is busy. The
// moment some II proves feasible, every attempt at a higher II is
// cancelled (it can no longer matter); the feasible result is returned
// once all lower IIs have resolved, preserving the sequential sweep's
// minimality guarantee.
func mapAutoSpeculative(ctx context.Context, g *dfg.Graph, a *arch.Arch, start, maxII int, opts Options, mg1 *mrrg.Graph) (*AutoResult, error) {
	pool := opts.Budget
	if pool == nil {
		pool = budget.Global()
	}

	type outcome struct {
		ii  int
		res *Result
		err error
	}
	outcomes := make(chan outcome, opts.Workers)
	results := make(map[int]*Result)
	cancels := make(map[int]context.CancelFunc)
	paid := make(map[int]bool) // attempts holding a budget token
	inflight := 0
	next := start
	ceiling := maxII // lowest feasible II seen so far bounds the sweep

	drain := func() {
		for _, cancel := range cancels {
			cancel()
		}
		for inflight > 0 {
			o := <-outcomes
			inflight--
			if paid[o.ii] {
				pool.Release(1)
			}
		}
	}
	defer drain()

	for {
		for next <= ceiling && inflight < opts.Workers && ctx.Err() == nil {
			if inflight > 0 && pool.TryAcquire(1) == 0 {
				break // no token for further speculation right now
			}
			ii := next
			next++
			paid[ii] = inflight > 0
			actx, cancel := context.WithCancel(ctx)
			cancels[ii] = cancel
			inflight++
			go func() {
				res, err := mapAtII(actx, g, a, ii, opts, mg1)
				outcomes <- outcome{ii, res, err}
			}()
		}
		if inflight == 0 {
			break // window empty and nothing left to launch
		}

		o := <-outcomes
		inflight--
		cancels[o.ii]()
		if paid[o.ii] {
			pool.Release(1)
			delete(paid, o.ii)
		}
		if o.err != nil {
			return nil, o.err
		}
		results[o.ii] = o.res
		if o.res.Feasible() && o.ii < ceiling {
			ceiling = o.ii
			// Higher IIs can no longer win; stop their attempts.
			for ii, cancel := range cancels {
				if ii > ceiling {
					cancel()
				}
			}
		}

		// Resolved when the smallest feasible II has every lower II
		// decided (a timeout below it is acceptable — the sequential
		// sweep returns a feasible II past an undecided one too).
		winner := -1
		for ii := start; ii <= ceiling; ii++ {
			r, ok := results[ii]
			if !ok {
				winner = -1
				break
			}
			if r.Feasible() {
				winner = ii
				break
			}
		}
		if winner >= 0 {
			auto := &AutoResult{II: winner, Result: results[winner]}
			for ii := start; ii <= winner; ii++ {
				auto.Tried = append(auto.Tried, results[ii].Status)
			}
			return auto, nil
		}
	}

	auto := &AutoResult{}
	for ii := start; ii <= maxII; ii++ {
		if r, ok := results[ii]; ok {
			auto.Tried = append(auto.Tried, r.Status)
		}
	}
	if ctx.Err() != nil {
		auto.Result = &Result{Status: ilp.Unknown, Reason: "cancelled during II sweep"}
		return auto, nil
	}
	auto.Result = exhaustedResult(auto.Tried, maxII)
	return auto, nil
}
