// Package anneal implements the simulated-annealing CGRA mapper used as
// the comparison baseline in the paper's Fig. 8. It follows the
// DRESC/SPR lineage the paper describes: operations are placed on
// functional-unit nodes and moved/swapped under a Metropolis acceptance
// rule with a geometric cooling schedule, while values are routed over
// the MRRG by congestion-negotiated shortest paths (PathFinder-style
// present-sharing penalties that stiffen as the anneal cools).
//
// Being a heuristic, it can fail to find mappings that exist — which is
// exactly the gap the paper's ILP mapper quantifies.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
)

// Options are the annealing parameters. The zero value selects the
// "moderate parameters" defaults used for the Fig. 8 reproduction.
type Options struct {
	// Seed seeds the random source (0 selects a fixed default).
	Seed int64
	// MovesPerTemp is the inner-loop move count per temperature step.
	MovesPerTemp int
	// InitialTemp, Cooling and MinTemp define the geometric schedule.
	InitialTemp float64
	Cooling     float64
	MinTemp     float64
	// OverusePenalty is the starting congestion penalty; it grows each
	// temperature step.
	OverusePenalty float64
}

func (o *Options) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MovesPerTemp == 0 {
		o.MovesPerTemp = 400
	}
	if o.InitialTemp == 0 {
		o.InitialTemp = 30
	}
	if o.Cooling == 0 {
		o.Cooling = 0.85
	}
	if o.MinTemp == 0 {
		o.MinTemp = 0.05
	}
	if o.OverusePenalty == 0 {
		o.OverusePenalty = 2
	}
}

// Result reports one annealing run.
type Result struct {
	// Feasible is true when a fully legal mapping was found (verified
	// independently by mapper.Mapping.Verify).
	Feasible bool
	// Mapping is the legal mapping (nil unless Feasible).
	Mapping *mapper.Mapping
	// Cost is the final annealing cost (routing + penalties).
	Cost float64
	// Moves and Accepted count annealing moves.
	Moves, Accepted int
	// Status aligns the heuristic with the ILP engines' solve statuses
	// so callers (the job service's anneal engine and degraded lane)
	// report all engines uniformly: Feasible when a legal mapping was
	// found, Unknown otherwise — a heuristic can prove neither
	// infeasibility nor optimality.
	Status ilp.Status
	// Stats carries counters ("moves", "accepted") plus "cancelled"
	// when the context ended the schedule early — the same cancellation
	// convention the cdcl and bb engines use.
	Stats map[string]int64
}

// finish stamps the unified status/stat fields before returning r.
func (r *Result) finish(cancelled bool) *Result {
	if r.Feasible {
		r.Status = ilp.Feasible
	} else {
		r.Status = ilp.Unknown
	}
	r.Stats = map[string]int64{"moves": int64(r.Moves), "accepted": int64(r.Accepted)}
	if cancelled {
		r.Stats["cancelled"] = 1
	}
	return r
}

// state is the annealing state: a (possibly illegal) placement plus
// negotiated routes.
type state struct {
	g   *dfg.Graph
	mg  *mrrg.Graph
	rng *rand.Rand

	legal   [][]int // op -> candidate FU nodes
	place   []int   // op -> FU node
	fuOwner map[int]int

	// routes[val][k]: node set for the sub-value, nil when unroutable.
	routes [][][]int
	// usage[node]: number of distinct values using the node.
	usage []int

	penalty float64
}

// Map runs the annealer. It returns an infeasible Result (not an error)
// when no legal mapping was found within the schedule.
func Map(ctx context.Context, g *dfg.Graph, mg *mrrg.Graph, opts Options) (*Result, error) {
	opts.fill()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("anneal: invalid DFG: %w", err)
	}
	if ctx.Err() != nil {
		return (&Result{}).finish(true), nil
	}
	s := &state{
		g:   g,
		mg:  mg,
		rng: rand.New(rand.NewSource(opts.Seed)),
	}
	if err := s.computeLegal(); err != nil {
		return (&Result{}).finish(false), nil //nolint:nilerr // unmappable kind: heuristic just fails
	}
	s.randomPlacement()
	s.penalty = opts.OverusePenalty
	s.rerouteAll()
	cost := s.cost()

	res := &Result{}
	for temp := opts.InitialTemp; temp > opts.MinTemp; temp *= opts.Cooling {
		for i := 0; i < opts.MovesPerTemp; i++ {
			if ctx.Err() != nil {
				return res.finish(true), nil
			}
			res.Moves++
			undo, touched := s.randomMove()
			if undo == nil {
				continue
			}
			for _, v := range touched {
				s.ripUp(v)
			}
			for _, v := range touched {
				s.route(v)
			}
			newCost := s.cost()
			delta := newCost - cost
			if delta <= 0 || s.rng.Float64() < math.Exp(-delta/temp) {
				res.Accepted++
				cost = newCost
			} else {
				undo()
				for _, v := range touched {
					s.ripUp(v)
				}
				for _, v := range touched {
					s.route(v)
				}
				cost = s.cost()
			}
		}
		// Stiffen congestion penalties and renegotiate all routes
		// (PathFinder-style).
		s.penalty *= 1.5
		s.rerouteAll()
		cost = s.cost()
		if s.legalNow() {
			break
		}
	}
	res.Cost = cost
	if !s.legalNow() {
		return res.finish(false), nil
	}
	m := s.toMapping()
	if err := m.Verify(); err != nil {
		// A mapping the verifier rejects is a bug, not a heuristic
		// miss.
		return nil, fmt.Errorf("anneal: produced invalid mapping: %w", err)
	}
	res.Feasible = true
	res.Mapping = m
	return res.finish(false), nil
}

func (s *state) computeLegal() error {
	s.legal = make([][]int, s.g.NumOps())
	for _, op := range s.g.Ops() {
		for _, p := range s.mg.FuncUnits() {
			if s.mg.Nodes[p].SupportsOp(op.Kind) {
				s.legal[op.ID] = append(s.legal[op.ID], p)
			}
		}
		if len(s.legal[op.ID]) == 0 {
			return fmt.Errorf("no FU supports %s", op.Kind)
		}
	}
	return nil
}

// randomPlacement assigns every op a random legal FU without collisions
// (greedy with retries; collisions that cannot be avoided leave the op on
// an occupied FU, to be repaired by annealing moves).
func (s *state) randomPlacement() {
	s.place = make([]int, s.g.NumOps())
	s.fuOwner = make(map[int]int)
	for _, op := range s.g.Ops() {
		placed := false
		for try := 0; try < 30 && !placed; try++ {
			p := s.legal[op.ID][s.rng.Intn(len(s.legal[op.ID]))]
			if _, busy := s.fuOwner[p]; !busy {
				s.place[op.ID] = p
				s.fuOwner[p] = op.ID
				placed = true
			}
		}
		if !placed {
			p := s.legal[op.ID][s.rng.Intn(len(s.legal[op.ID]))]
			s.place[op.ID] = p // collision: cost will punish it
		}
	}
}

// randomMove moves a random op to a random other legal FU, swapping when
// the target is occupied and the swap is legal both ways. It returns an
// undo closure and the IDs of values whose routes are affected, or nil
// when no move was possible.
func (s *state) randomMove() (undo func(), touched []int) {
	op := s.g.Ops()[s.rng.Intn(s.g.NumOps())]
	cands := s.legal[op.ID]
	target := cands[s.rng.Intn(len(cands))]
	cur := s.place[op.ID]
	if target == cur {
		return nil, nil
	}
	otherID, occupied := s.fuOwner[target]
	if occupied {
		other := s.g.Ops()[otherID]
		if !s.mg.Nodes[cur].SupportsOp(other.Kind) {
			return nil, nil
		}
		s.place[op.ID], s.place[otherID] = target, cur
		s.fuOwner[target], s.fuOwner[cur] = op.ID, otherID
		undo = func() {
			s.place[op.ID], s.place[otherID] = cur, target
			s.fuOwner[target], s.fuOwner[cur] = otherID, op.ID
		}
		touched = s.incidentVals(op, other)
	} else {
		s.place[op.ID] = target
		delete(s.fuOwner, cur)
		s.fuOwner[target] = op.ID
		undo = func() {
			s.place[op.ID] = cur
			delete(s.fuOwner, target)
			s.fuOwner[cur] = op.ID
		}
		touched = s.incidentVals(op)
	}
	return undo, touched
}

// incidentVals returns the IDs of values produced or consumed by the ops.
func (s *state) incidentVals(ops ...*dfg.Op) []int {
	seen := map[int]bool{}
	var vals []int
	add := func(v *dfg.Value) {
		if v != nil && !seen[v.ID] {
			seen[v.ID] = true
			vals = append(vals, v.ID)
		}
	}
	for _, op := range ops {
		add(op.Out)
		for _, v := range op.In {
			add(v)
		}
	}
	return vals
}
