package cdcl

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"cgramap/internal/ilp"
)

// Engine solves unit-coefficient 0-1 ILP models. The zero value is ready
// to use. It implements ilp.Solver.
type Engine struct {
	// DisableProbing turns off root-level failed-literal probing of
	// prioritised variables (on by default; see probe).
	DisableProbing bool
	// Seed, when non-zero, randomizes the initial search trajectory:
	// variable activities get a small jitter (breaking ties under the
	// model's branch priorities) and saved phases start random. Distinct
	// seeds give effectively independent restarts of the same complete
	// search, which is what the portfolio racer's reseeded strategies
	// and backoff-and-reseed retries rely on.
	Seed int64
}

// New returns a ready Engine.
func New() *Engine { return &Engine{} }

// NewSeeded returns an Engine with a randomized search trajectory.
func NewSeeded(seed int64) *Engine { return &Engine{Seed: seed} }

// probe performs failed-literal probing at the root: each candidate
// variable is tentatively assigned true; if unit propagation derives a
// conflict, the variable is permanently false. Repeats to a fixpoint
// (bounded), which on CGRA-mapping models eliminates placements whose
// routing obligations are locally contradictory. Returns false when the
// model is proven infeasible outright.
func probe(ctx context.Context, s *solver, candidates []int) bool {
	if confl := s.propagate(); !confl.none() {
		s.ok = false
		return false
	}
	for round := 0; round < 3; round++ {
		progress := false
		for _, v := range candidates {
			if s.assigns[v] != lUndef {
				continue
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(mkLit(v, false), nil, -1)
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

var _ ilp.Solver = (*Engine)(nil)

// normalized is a constraint rewritten to "sum of literals <= k":
// a +1 coefficient keeps the positive literal; a -1 coefficient becomes
// the negated literal and raises k by one.
type normalized struct {
	lits []lit
	k    int
}

// normalizeLE rewrites sum(terms) <= rhs into at-most-k form. Terms must
// be unit-coefficient after merging duplicates; flip negates every
// coefficient first (for >=).
func normalizeLE(terms []ilp.Term, rhs int, flip bool) (normalized, error) {
	merged := make(map[ilp.Var]int, len(terms))
	for _, t := range terms {
		c := t.Coef
		if flip {
			c = -c
		}
		merged[t.Var] += c
	}
	if flip {
		rhs = -rhs
	}
	n := normalized{k: rhs}
	for v, c := range merged {
		switch c {
		case 0:
			// cancelled out
		case 1:
			n.lits = append(n.lits, mkLit(int(v), false))
		case -1:
			n.lits = append(n.lits, mkLit(int(v), true))
			n.k++
		default:
			return normalized{}, fmt.Errorf("cdcl: coefficient %d on variable %d not supported (unit coefficients only)", c, int(v))
		}
	}
	// Deterministic ordering for reproducible search behaviour.
	sort.Slice(n.lits, func(i, j int) bool { return n.lits[i] < n.lits[j] })
	return n, nil
}

// compile encodes a model into a fresh solver. It returns an error for non-unit coefficients; a
// model trivially infeasible at the root comes back with ok cleared. A
// non-zero seed jitters activities and phases for an independent search
// trajectory.
func compile(m *ilp.Model, seed int64) (*solver, error) {
	s := newSolver(m.NumVars())
	// Honour the model's branching hints: priorities become initial
	// VSIDS activities (decided first, then adapted by learning), phase
	// hints the initial saved phase.
	rebuildHeap := false
	for v := 0; v < m.NumVars(); v++ {
		if pri := m.BranchPriority(ilp.Var(v)); pri != 0 {
			s.activity[v] = float64(pri)
			rebuildHeap = true
		}
		if m.PhaseHint(ilp.Var(v)) {
			s.phase[v] = true
		}
	}
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		rebuildHeap = true
		for v := 0; v < m.NumVars(); v++ {
			// Jitter below 0.5 shuffles ties without overturning the
			// integer branch priorities.
			s.activity[v] += rng.Float64() * 0.4
			if m.PhaseHint(ilp.Var(v)) {
				// Keep hints mostly, flipping a few for diversity.
				s.phase[v] = rng.Float64() >= 0.1
			} else {
				s.phase[v] = rng.Intn(2) == 1
			}
		}
	}
	if rebuildHeap {
		s.heap.init(s)
		for i := len(s.heap.heap)/2 - 1; i >= 0; i-- {
			s.heap.down(i)
		}
	}
	err := normalizeAll(m, func(n normalized) bool { return s.addAtMost(n.lits, n.k) })
	return s, err
}

// objectiveLits normalizes the objective for bound tightening. A
// unit-coefficient objective sum(c_i x_i) equals sum over literals plus a
// constant offset: +x contributes literal x; -x contributes literal ¬x
// with offset -1.
func objectiveLits(m *ilp.Model) (lits []lit, offset int, err error) {
	merged := make(map[ilp.Var]int, len(m.Objective))
	for _, t := range m.Objective {
		merged[t.Var] += t.Coef
	}
	for v, c := range merged {
		switch c {
		case 0:
		case 1:
			lits = append(lits, mkLit(int(v), false))
		case -1:
			lits = append(lits, mkLit(int(v), true))
			offset--
		default:
			return nil, 0, fmt.Errorf("cdcl: objective coefficient %d not supported (unit coefficients only)", c)
		}
	}
	sort.Slice(lits, func(i, j int) bool { return lits[i] < lits[j] })
	return lits, offset, nil
}

// Solve decides the model (see drive for the optimisation and
// cancellation contract).
func (e *Engine) Solve(ctx context.Context, m *ilp.Model) (*ilp.Solution, error) {
	return drive(ctx, m, func(objLits []lit) (backend, error) {
		s, err := compile(m, e.Seed)
		if err != nil {
			return nil, err
		}
		r := &scratch{s: s, nVars: m.NumVars(), objLits: objLits}
		if !e.DisableProbing {
			r.candidates = probeCandidates(m)
		}
		return r, nil
	})
}

// scratch is Engine's backend: one model compiled into a solver of its
// own, probed at the root.
type scratch struct {
	s          *solver
	nVars      int
	objLits    []lit
	candidates []int // probing candidates; nil when probing is off
}

func (r *scratch) probe(ctx context.Context) (lbool, error) {
	if !r.s.ok || len(r.candidates) > 0 && !probe(ctx, r.s, r.candidates) {
		return lFalse, nil
	}
	return lTrue, nil
}

func (r *scratch) search(ctx context.Context) (lbool, error) { return r.s.search(ctx), nil }

func (r *scratch) model() ilp.Assignment { return r.s.assignment(r.nVars) }

func (r *scratch) bound(k int) bool {
	r.s.cancelUntil(0)
	return r.s.addAtMost(r.objLits, k)
}

func (r *scratch) stats() map[string]int64 { return r.s.stats() }
