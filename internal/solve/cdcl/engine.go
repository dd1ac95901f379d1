package cdcl

import (
	"context"

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
	// search, which is what the parallel gang's lanes rely on.
	Seed int64
}

// New returns a ready Engine.
func New() *Engine { return &Engine{} }

// NewSeeded returns an Engine with a randomized search trajectory.
func NewSeeded(seed int64) *Engine { return &Engine{Seed: seed} }

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

var _ ilp.Solver = (*Engine)(nil)

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
