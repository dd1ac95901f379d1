package mapper

import (
	"context"
	"fmt"
	"slices"

	"cgramap/internal/arch"
	"cgramap/internal/budget"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
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
// The sweep climbs the ladder with a window of up to max(1, opts.Workers)
// candidate IIs in flight, lowest first. The first attempt in flight is
// free (the caller was going to solve it anyway); each further one must
// win a token from opts.Budget, so the window narrows to one attempt at
// a time when the machine is busy. Once some II proves feasible, the
// attempts above it are cancelled, and it is returned once every lower
// II has been proven infeasible or timed out: the answer is the smallest
// feasible II whatever the width. A cancelled context yields status
// Unknown, never Infeasible: an interrupted search proves nothing.
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
		// to on. The resolved mode flows through every attempt below.
		opts.Symmetry = SymmetryOn
	}
	if opts.Artifacts == nil {
		// Even without a caller-provided cache, the ladder itself is a
		// reuse opportunity: one template serves every II. The
		// ephemeral cache dies with the sweep.
		opts.Artifacts = NewArtifactCache(maxII + 2)
	}
	start := 1
	if mii, err := sched.ArchMII(g, a); err == nil {
		start = mii
	}
	if start > maxII {
		return &AutoResult{
			Result: &Result{Status: ilp.Infeasible,
				Reason: fmt.Sprintf("minimum initiation interval %d exceeds maxII %d", start, maxII)},
		}, nil
	}

	width := max(1, opts.Workers)
	pool := opts.Budget
	if pool == nil {
		pool = budget.Global()
	}

	type outcome struct {
		ii  int
		res *Result
		err error
	}
	outcomes := make(chan outcome, width)
	results := make(map[int]*Result)
	cancels := make(map[int]context.CancelFunc)
	inflight := 0
	next := start
	ceiling := maxII // lowest feasible II seen so far bounds the sweep

	// Every attempt in flight beyond the first holds one budget token.
	finished := func() {
		inflight--
		if inflight > 0 {
			pool.Release(1)
		}
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
		for inflight > 0 {
			<-outcomes
			finished()
		}
	}()
	tried := func(upto int) []ilp.Status {
		var st []ilp.Status
		for ii := start; ii <= upto; ii++ {
			st = append(st, results[ii].Status)
		}
		return st
	}

	for {
		for next <= ceiling && inflight < width && ctx.Err() == nil {
			if inflight > 0 && pool.TryAcquire(1) == 0 {
				break // no token for further speculation right now
			}
			ii := next
			next++
			actx, cancel := context.WithCancel(ctx)
			cancels[ii] = cancel
			inflight++
			go func() {
				res, err := mapAtII(actx, g, a, ii, opts)
				outcomes <- outcome{ii, res, err}
			}()
		}
		if inflight == 0 {
			break // window empty and nothing left to launch
		}

		o := <-outcomes
		finished()
		cancels[o.ii]()
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
		// decided (a timeout below it is acceptable: the sweep returns
		// a feasible II past an undecided one).
		for ii := start; ii <= ceiling && results[ii] != nil; ii++ {
			if results[ii].Feasible() {
				return &AutoResult{II: ii, Result: results[ii], Tried: tried(ii)}, nil
			}
		}
	}

	// Every launched attempt, start..next-1, has resolved without a
	// mapping: the sweep is provably infeasible only if it ran to maxII
	// and every attempt ended in a proof.
	auto := &AutoResult{Tried: tried(next - 1)}
	switch {
	case ctx.Err() != nil:
		auto.Result = &Result{Status: ilp.Unknown, Reason: "cancelled during II sweep"}
	case slices.Contains(auto.Tried, ilp.Unknown):
		auto.Result = &Result{Status: ilp.Unknown,
			Reason: fmt.Sprintf("undecided up to II=%d (solver timeouts)", maxII)}
	default:
		auto.Result = &Result{Status: ilp.Infeasible,
			Reason: fmt.Sprintf("no feasible mapping up to II=%d", maxII)}
	}
	return auto, nil
}

// mapAtII runs one mapping attempt at the given context count, with the
// MRRG from the sweep's artifact cache. An MRRG generation failure (FU
// IIs incompatible with this context count) is an infeasible attempt,
// not an error.
func mapAtII(ctx context.Context, g *dfg.Graph, a *arch.Arch, ii int, opts Options) (*Result, error) {
	attempt := *a
	attempt.Contexts = ii
	mg, err := opts.Artifacts.MRRG(&attempt)
	if err != nil {
		return &Result{Status: ilp.Infeasible, Reason: err.Error()}, nil
	}
	return Map(ctx, g, mg, opts)
}
