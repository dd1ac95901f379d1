package main

import (
	"context"
	"time"

	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/sim"
	"cgramap/internal/solve/cdcl"
)

// timedSolver records one "solve" span per call around the engine it
// wraps. It wraps exactly the engine mapper.Map picks by itself at
// Workers 1 and seed 0 (cdcl.New()), so a traced solve follows the same
// search trajectory as an untraced one.
type timedSolver struct {
	tr            *tracer
	trace, parent int
}

func (s *timedSolver) Solve(ctx context.Context, m *ilp.Model) (*ilp.Solution, error) {
	id := s.tr.begin(s.trace, s.parent, "solve")
	sol, err := cdcl.New().Solve(ctx, m)
	if err != nil {
		s.tr.end(id, "error", nil)
		return sol, err
	}
	counters := map[string]float64{}
	for _, k := range []string{"conflicts", "decisions", "propagations", "restarts"} {
		counters[k] = float64(sol.Stats[k])
	}
	s.tr.end(id, solveStatus(sol.Status), counters)
	return sol, nil
}

// solveStatus names an outcome the way spans record it.
func solveStatus(s ilp.Status) string {
	switch s {
	case ilp.Optimal, ilp.Feasible:
		return statusSat
	case ilp.Infeasible:
		return statusUnsat
	default:
		return statusTimeout
	}
}

// tracedMap calls mapper.Map inside a "map" span with the timing
// decorator as its solver. Map reports its own formulation time in
// Result.BuildTime; it becomes a "map.build" child at the start of the
// call, so the map span's self time is decode and verification.
func tracedMap(ctx context.Context, tr *tracer, trace, parent int, g *dfg.Graph, mg *mrrg.Graph, opts mapper.Options) (*mapper.Result, error) {
	id := tr.begin(trace, parent, "map")
	opts.Solver = &timedSolver{tr: tr, trace: trace, parent: id}
	start := time.Now()
	res, err := mapper.Map(ctx, g, mg, opts)
	if err != nil {
		tr.end(id, "error", nil)
		return nil, err
	}
	tr.record(trace, id, "map.build", start, start.Add(res.BuildTime), nil)
	tr.end(id, solveStatus(res.Status), nil)
	return res, nil
}

// memImage is the load memory simulations run against, the image
// cgramap -validate uses.
var memImage = func() map[uint32]uint32 {
	mem := map[uint32]uint32{}
	for a := uint32(0); a < 64; a++ {
		mem[a] = 2*a + 1
	}
	return mem
}()

// simulate checks a mapping by simulating the configured fabric and
// comparing its outputs with direct evaluation of the DFG (sim.Validate).
// A cyclic kernel never settles to comparable outputs; Map's own
// verification is the check for those.
func simulate(tr *tracer, trace, parent int, m *mapper.Mapping) error {
	if !m.DFG.Acyclic() {
		return nil
	}
	id := tr.begin(trace, parent, "sim.validate")
	err := sim.Validate(m, sim.DefaultInputs(m.DFG, 7), memImage)
	tr.end(id, "", nil)
	return err
}
