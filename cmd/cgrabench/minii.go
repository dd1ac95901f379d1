package main

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/sched"
)

const (
	// miniiBudget bounds one whole ladder. It leaves headroom over the
	// slowest proof in the pass (mac's II=1 refutation on homo-diag,
	// 1.7 to 2.3 s) and keeps exp_4 on homo-diag as the pass's one
	// timeout.
	miniiBudget = 3 * time.Second
	miniiMaxII  = 4
)

// miniiFabrics are 3x3 grids: on the paper's 4x4 fabrics almost every
// ladder stops at its first rung, while here MII runs from 1 to 3 and
// low rungs are really refuted.
var miniiFabrics = []arch.GridSpec{
	{Rows: 3, Cols: 3, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1},
	{Rows: 3, Cols: 3, Interconnect: arch.Orthogonal, Homogeneous: false, Contexts: 1},
}

// miniiKernels are ten of the nineteen Table 1 kernels: all 38 ladders
// take about 48 s on a 2-CPU machine, too long for one run. These 20
// take about 8 s and keep each kind of ladder: II=1 refuted then II=2
// found (mac on both fabrics, exp_4 on hetero-orth), first rungs skipped
// below MII (mult_10, exp_5 and mult_14, whose MII is 3 on hetero-orth),
// quick first-rung maps, and one ladder undecided at the budget (exp_4
// on homo-diag, undecided even at 10 s).
var miniiKernels = []string{"accum", "mac", "add_10", "mult_10", "mult_14", "2x2-f", "2x2-p", "exp_4", "exp_5", "tay_4"}

// minii asks for what a CGRA compiler wants to know, the smallest II,
// through mapper.MapAuto: sched.MII picks the first rung, symmetry
// breaking is on (auto resolves to on for ladders) and each ladder's
// short-lived artifact cache is reused across its rungs. No other
// workload runs those three. Its ladders are fixed, not seeded: with only
// 20 ladders per pass, a few generated kernels of random difficulty would
// make the spread across seeds measure the draw rather than the code.
// Seeded kernels reach MapAuto through the service workload's auto-II
// jobs instead, about a hundred per run.
type minii struct {
	cfg     *config
	fabrics []*arch.Arch
	ladders []ladder
	// autos holds MapAuto's latest answer from the untraced phase, by
	// ladder, for the traced phase's divergence check.
	autos map[int]*mapper.AutoResult
}

type ladder struct {
	g      *dfg.Graph
	a      *arch.Arch
	fabric string
}

func (w *minii) setup(cfg *config) error {
	w.cfg = cfg
	w.autos = map[int]*mapper.AutoResult{}
	for _, spec := range miniiFabrics {
		a, err := arch.Grid(spec)
		if err != nil {
			return err
		}
		w.fabrics = append(w.fabrics, a)
	}
	for _, a := range w.fabrics {
		for _, n := range miniiKernels {
			g, err := bench.Get(n)
			if err != nil {
				return err
			}
			w.ladders = append(w.ladders, ladder{g, a, a.Name})
		}
	}
	if cfg.smoke {
		w.ladders = w.ladders[:1]
	}
	return nil
}

func (w *minii) measure(ctx context.Context, budget time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	if tr == nil {
		return p, p.repeat(budget, len(w.ladders), func(i int) (op, error) { return w.auto(ctx, i, w.ladders[i]) })
	}
	w.discover(tr)
	return p, p.repeat(budget, len(w.ladders), func(i int) (op, error) {
		return w.traced(ctx, tr, len(p.ops)+1, i, w.ladders[i])
	})
}

// auto runs one ladder through mapper.MapAuto.
func (w *minii) auto(ctx context.Context, i int, l ladder) (op, error) {
	lctx, cancel := context.WithTimeout(ctx, miniiBudget)
	start := time.Now()
	res, err := mapper.MapAuto(lctx, l.g, l.a, miniiMaxII, mapper.Options{Workers: 1})
	dur := time.Since(start)
	cancel()
	if err != nil {
		return op{}, fmt.Errorf("%s on %s: %w", l.g.Name, l.fabric, err)
	}
	w.autos[i] = res
	out := outcomeOf(res)
	o := op{input: instance(l.g.Name, l.fabric), dur: dur, budget: miniiBudget, decided: out.decided,
		err: w.cfg.answers.checkLadder(l.g.Name, l.fabric, out)}
	if o.err == nil && res.Mapping != nil {
		if err := simulate(nil, 0, 0, res.Mapping); err != nil {
			o.err = fmt.Errorf("%s on %s: %w", l.g.Name, l.fabric, err)
		}
	}
	return o, nil
}

// discover times arch.Discover once per fabric: the automorphisms
// symmetry breaking is built from.
func (w *minii) discover(tr *tracer) {
	for _, a := range w.fabrics {
		id := tr.begin(0, 0, "arch.discover")
		syms := arch.Discover(a)
		tr.end(id, "", map[string]float64{"generators": float64(len(syms.Gens))})
	}
}

// traced unrolls one ladder from outside, following MapAuto's sequential
// path: the single-context MRRG from a per-ladder artifact cache, then
// sched.MII, then per II the cached MRRG and mapper.Map with symmetry on,
// the shared cache and the timing decorator. It compares its trajectory
// with MapAuto's answer for the same ladder, and records every rung as a
// span with its status and solver counters.
func (w *minii) traced(ctx context.Context, tr *tracer, trace, i int, l ladder) (op, error) {
	lctx, cancel := context.WithTimeout(ctx, miniiBudget)
	defer cancel()
	start := time.Now()
	root := tr.begin(trace, 0, "ladder")
	cache := mapper.NewArtifactCache(miniiMaxII + 2)
	opts := mapper.Options{Workers: 1, Symmetry: mapper.SymmetryOn, Artifacts: cache}

	single := *l.a
	single.Contexts = 1
	id := tr.begin(trace, root, "mrrg.generate")
	mg1, err := cache.MRRG(&single)
	tr.end(id, "", nodeCounters(mg1))
	first := 1
	if err == nil {
		id = tr.begin(trace, root, "sched.mii")
		mii, err := sched.MII(l.g, mg1)
		if err == nil {
			first = mii
		}
		tr.end(id, "", map[string]float64{"skipped": float64(first - 1)})
	}

	auto := &mapper.AutoResult{Result: &mapper.Result{Status: ilp.Infeasible}}
	for ii := first; ii <= miniiMaxII; ii++ {
		rung := tr.begin(trace, root, "rung")
		res, err := w.rung(lctx, tr, trace, rung, l, ii, mg1, opts)
		if err != nil {
			return op{}, err
		}
		tr.end(rung, solveStatus(res.Status), map[string]float64{"ii": float64(ii)})
		auto.Tried = append(auto.Tried, res.Status)
		if res.Feasible() {
			auto.II, auto.Result = ii, res
			break
		}
		if lctx.Err() != nil {
			auto.Result = &mapper.Result{Status: ilp.Unknown}
			break
		}
		if res.Status == ilp.Unknown {
			auto.Result = res
		}
	}

	out := outcomeOf(auto)
	o := op{input: instance(l.g.Name, l.fabric), budget: miniiBudget, decided: out.decided,
		err: w.cfg.answers.checkLadder(l.g.Name, l.fabric, out)}
	if o.err == nil && auto.Mapping != nil {
		if err := simulate(tr, trace, root, auto.Mapping); err != nil {
			o.err = fmt.Errorf("%s on %s: %w", l.g.Name, l.fabric, err)
		}
	}
	tr.end(root, "", nil)
	o.dur = time.Since(start)

	st := cache.Stats().MRRG
	tr.add("mrrg.cache_hits", float64(st.Hits))
	tr.add("mrrg.cache_misses", float64(st.Misses))
	tr.add("ladder.count", 1)
	tr.add("ladder.ii", float64(cmp.Or(auto.II, miniiMaxII+1)))
	if prev, ok := w.autos[i]; ok {
		tr.add("ladder.compared", 1)
		if prev.II != auto.II || !reflect.DeepEqual(prev.Tried, auto.Tried) {
			tr.add("ladder.divergent", 1)
		}
	}
	return o, nil
}

// rung maps one II of a ladder; an MRRG the fabric cannot have at this
// II (FU initiation intervals) is an infeasible rung, as in MapAuto.
func (w *minii) rung(ctx context.Context, tr *tracer, trace, parent int, l ladder, ii int, mg1 *mrrg.Graph, opts mapper.Options) (*mapper.Result, error) {
	mg := mg1
	if ii != 1 || mg == nil {
		attempt := *l.a
		attempt.Contexts = ii
		id := tr.begin(trace, parent, "mrrg.generate")
		var err error
		mg, err = opts.Artifacts.MRRG(&attempt)
		tr.end(id, "", nodeCounters(mg))
		if err != nil {
			return &mapper.Result{Status: ilp.Infeasible, Reason: err.Error()}, nil
		}
	}
	res, err := tracedMap(ctx, tr, trace, parent, l.g, mg, opts)
	if err != nil {
		return nil, fmt.Errorf("%s on %s at II %d: %w", l.g.Name, l.fabric, ii, err)
	}
	return res, nil
}
