package cdcl

import (
	"context"
	"sync"

	"cgramap/internal/budget"
	"cgramap/internal/ilp"
)

// ParallelEngine solves unit-coefficient 0-1 ILP models with a gang of
// diversified CDCL workers exchanging learnt clauses — the ManySAT-style
// multicore counterpart of Engine. Each worker runs the same complete
// search over the same formula but from a different trajectory
// (branching seed, VSIDS decay, saved-phase polarity, restart schedule);
// workers export short learnt clauses into a bounded shared pool and
// import their peers' clauses at restart boundaries. The first worker to
// reach a definitive answer — a satisfying model or an unsatisfiability
// proof — wins and cancels the rest. Both outcomes stay proofs: every
// shared clause is a logical consequence of the common formula, so the
// gang is as complete as a single solver.
//
// Worker count: Workers is a request, not a demand. One worker always
// runs on the caller's goroutine budget; each additional worker must win
// a token from Budget (default: the process-wide budget.Global pool), so
// layered parallelism — a daemon's job pool above, speculative auto-II
// sweeps beside — degrades to narrower gangs instead of oversubscribing
// the machine.
//
// Determinism: with Workers <= 1 the engine delegates to the sequential
// Engine with the same seed, producing bit-identical results (same
// assignment, same stats). With more workers the winning trajectory is
// a race and stats vary run to run, but the answer itself (and, for
// optimisation models, the optimal objective value) is unique.
//
// It implements ilp.Solver.
type ParallelEngine struct {
	// Workers is the requested gang size (see above; values <= 1 select
	// the sequential engine).
	Workers int
	// Seed drives worker 0's trajectory exactly like Engine.Seed; the
	// other workers derive their diversification seeds from it, so a
	// fixed Seed makes the whole gang's trajectories reproducible.
	Seed int64
	// ShareMaxLen caps the length of exported clauses (default 8):
	// short clauses prune the most per byte shipped.
	ShareMaxLen int
	// Budget pays for workers beyond the first; nil selects the
	// process-wide budget.Global pool.
	Budget *budget.Pool
}

// NewParallel returns a ParallelEngine with the given gang size and base
// seed.
func NewParallel(workers int, seed int64) *ParallelEngine {
	return &ParallelEngine{Workers: workers, Seed: seed}
}

var _ ilp.Solver = (*ParallelEngine)(nil)

// Per-worker diversification tables (index = worker lane mod table
// length). Lane 0 keeps the sequential defaults so that the flagship
// trajectory is exactly the one the sequential engine would run.
var (
	laneDecay   = []float64{0.95, 0.85, 0.99, 0.75, 0.93, 0.88, 0.97, 0.80}
	laneRestart = []int64{100, 50, 300, 150, 700, 80, 200, 40}
)

// mixSeed derives a worker lane's seed from the base seed with a
// splitmix64-style finalizer (the same construction the portfolio racer
// uses for attempt reseeds). Lane 0 returns the base unchanged, so the
// flagship worker is bit-compatible with Engine{Seed: base}.
func mixSeed(base int64, lane int) int64 {
	if lane == 0 {
		return base
	}
	h := uint64(base) + uint64(lane)*0x9E3779B97F4A7C15
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 27
	if h == 0 {
		h = 1
	}
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// sharePoolCap bounds the shared pool's clause ring.
const sharePoolCap = 4096

// Solve decides (and, with an objective, optimises) the model. See
// drive for the contract; the parallel engine adds aggregated per-worker
// counters plus clause-sharing statistics ("workers", "shared_exported",
// "shared_imported", "winner") to Solution.Stats.
func (e *ParallelEngine) Solve(ctx context.Context, m *ilp.Model) (*ilp.Solution, error) {
	seq := &Engine{Seed: e.Seed}
	if e.Workers <= 1 {
		return seq.Solve(ctx, m)
	}
	pool := e.Budget
	if pool == nil {
		pool = budget.Global()
	}
	extra := pool.TryAcquire(e.Workers - 1)
	defer pool.Release(extra)
	if extra == 0 {
		// No spare tokens: run the sequential engine on the caller's
		// goroutine rather than a one-worker gang with pool overhead.
		return seq.Solve(ctx, m)
	}
	return drive(ctx, m, func(objLits []lit) (backend, error) { return e.load(m, objLits, 1+extra) })
}

// gang is ParallelEngine's backend: k solvers compiled from the same
// model with diversified trajectories, sharing one clause pool. The gang
// lives for the whole solve, so each objective bound is one more race over
// the same solvers (every shared or carried clause is a consequence of the
// model, hence of the model plus any tighter bound).
type gang struct {
	workers    []*solver
	imported   []int64 // per-worker import counters
	pool       *sharePool
	objLits    []lit
	candidates []int // worker 0's probing candidates until the first race
	winner     int
}

// load compiles the gang serially: identical formula, diversified
// trajectories.
func (e *ParallelEngine) load(m *ilp.Model, objLits []lit, k int) (*gang, error) {
	maxLen := e.ShareMaxLen
	if maxLen <= 0 {
		maxLen = 8
	}
	g := &gang{
		workers:    make([]*solver, k),
		imported:   make([]int64, k),
		pool:       newSharePool(maxLen, sharePoolCap),
		objLits:    objLits,
		candidates: probeCandidates(m),
		winner:     -1,
	}
	for i := range g.workers {
		s, err := compile(m, mixSeed(e.Seed, i))
		if err != nil {
			return nil, err
		}
		s.varDecay = laneDecay[i%len(laneDecay)]
		s.restartScale = laneRestart[i%len(laneRestart)]
		var cursor uint64
		s.onLearn = func(lits []lit) {
			if len(lits) <= maxLen {
				g.pool.Export(i, lits)
			}
		}
		s.onRestart = func() bool {
			sound := true
			var n int
			cursor, n = g.pool.Import(i, cursor, func(lits []lit) bool {
				sound = s.importLearnt(lits)
				return sound
			})
			g.imported[i] += int64(n)
			return sound
		}
		g.workers[i] = s
	}
	return g, nil
}

// probe only checks for a root-level contradiction. Worker 0 probes at
// the start of the first race instead, while its peers already search,
// and publishes the facts it derives.
func (g *gang) probe(context.Context) (lbool, error) {
	if !g.workers[0].ok {
		return lFalse, nil
	}
	return lTrue, nil
}

// search races every worker on the current formula; the first
// definitive answer wins and cancels the rest.
func (g *gang) search(ctx context.Context) (lbool, error) {
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		id  int
		res lbool
	}
	outcomes := make(chan outcome, len(g.workers))
	var wg sync.WaitGroup
	for i, s := range g.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 0 && len(g.candidates) > 0 {
				if !probe(raceCtx, s, g.candidates) {
					outcomes <- outcome{i, lFalse}
					return
				}
				// Publish the probe's level-0 facts so the other
				// workers prune the same placements without paying
				// for the probing themselves.
				for _, l := range s.trail {
					g.pool.Export(i, []lit{l})
				}
			}
			outcomes <- outcome{i, s.search(raceCtx)}
		}()
	}
	verdict := lUndef
	for range g.workers {
		o := <-outcomes
		if o.res != lUndef && verdict == lUndef {
			g.winner, verdict = o.id, o.res
			cancel() // first definitive answer ends the race
		}
	}
	wg.Wait() // all counters quiescent before the next phase
	g.candidates = nil
	return verdict, nil
}

func (g *gang) model() ilp.Assignment {
	w := g.workers[g.winner]
	return w.assignment(w.nVars)
}

// bound adds the tightened objective bound to every worker. Each worker's
// level-0 facts are consequences of the shared model, so one refutation
// refutes the bound for all.
func (g *gang) bound(k int) bool {
	for _, s := range g.workers {
		s.cancelUntil(0)
		if !s.addAtMost(g.objLits, k) {
			return false
		}
	}
	return true
}

func (g *gang) stats() map[string]int64 {
	w0 := g.workers[0]
	agg := map[string]int64{
		"workers": int64(len(g.workers)),
		"clauses": int64(len(w0.clauses)),
		"cards":   int64(len(w0.cards)),
		"learnts": int64(len(w0.learnts)),
	}
	for i, s := range g.workers {
		agg["conflicts"] += s.conflicts
		agg["decisions"] += s.decisions
		agg["propagations"] += s.propagations
		agg["restarts"] += s.restarts
		agg["shared_imported"] += g.imported[i]
	}
	agg["shared_exported"], agg["shared_refused"], agg["shared_dropped"] = g.pool.Stats()
	if g.winner >= 0 {
		agg["winner"] = int64(g.winner)
	}
	return agg
}
