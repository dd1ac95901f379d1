package cdcl

import (
	"cmp"
	"context"
	"sync"
	"sync/atomic"

	"cgramap/internal/ilp"
)

// Per-worker diversification tables (index = worker lane mod table
// length). Lane 0 keeps the solver defaults so that the flagship
// trajectory is exactly the one a one-lane gang runs.
var (
	laneDecay   = []float64{0.95, 0.85, 0.99, 0.75, 0.93, 0.88, 0.97, 0.80}
	laneRestart = []int64{100, 50, 300, 150, 700, 80, 200, 40}
)

// mixSeed derives a worker lane's seed from the base seed with a
// splitmix64-style finalizer. Lane 0 returns the base unchanged, so the
// flagship worker is bit-compatible with a one-lane Engine{Seed: base}.
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

// gang is k solvers compiled from the same model with diversified
// trajectories, sharing one clause pool when k > 1. Every shared or
// carried clause is a consequence of the model, hence of the model plus
// any tighter objective bound.
type gang struct {
	workers    []*solver
	imported   []int64    // per-worker import counters; nil when k = 1
	pool       *sharePool // nil when k = 1
	objLits    []lit
	candidates []int // worker 0's probing candidates until the first race
	winner     int
}

// load compiles the model once and clones the loaded solver for every
// further lane before any lane is seeded: identical formula, diversified
// trajectories. Lane i ends up equal to compile(m, mixSeed(e.Seed, i)).
// A single lane keeps the solver defaults. Wider gangs also vary each
// lane's VSIDS decay and restart schedule and connect the lanes through
// one clause pool: each exports its learnt clauses of at most the length
// cap and imports its peers' at restarts.
func (e *Engine) load(m *ilp.Model, objLits []lit, k int) (*gang, error) {
	base, err := load(m)
	if err != nil {
		return nil, err
	}
	g := &gang{workers: make([]*solver, k), objLits: objLits, winner: -1}
	if !e.noProbe {
		g.candidates = probeCandidates(m)
	}
	g.workers[0] = base
	for i := 1; i < k; i++ {
		g.workers[i] = base.clone()
	}
	for i, s := range g.workers {
		s.applySeed(mixSeed(e.Seed, i))
		s.conflictCap = e.conflictCap
		if e.maxLearnts > 0 {
			s.maxLearnts = e.maxLearnts
		}
	}
	if k == 1 {
		return g, nil
	}
	maxLen := cmp.Or(e.shareMaxLen, 8)
	g.imported = make([]int64, k)
	g.pool = newSharePool(maxLen, sharePoolCap)
	for i, s := range g.workers {
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
	}
	return g, nil
}

// search races every worker on the current formula; the first
// definitive answer wins and cancels the rest. Worker 0 runs on the
// caller's goroutine, each further worker on one of its own, so a
// one-lane gang is a plain sequential search. In the first race worker 0
// probes before searching, while its peers already search, and publishes
// the facts it derives.
func (g *gang) search(ctx context.Context) lbool {
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var winner atomic.Int32
	winner.Store(-1)
	verdict := lUndef // written only by the winner
	race := func(i int) {
		if res := g.run(raceCtx, i); res != lUndef && winner.CompareAndSwap(-1, int32(i)) {
			verdict = res
			cancel() // first definitive answer ends the race
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(g.workers); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			race(i)
		}()
	}
	race(0)
	wg.Wait() // all counters quiescent before the next phase
	g.candidates = nil
	if w := winner.Load(); w >= 0 {
		g.winner = int(w)
	}
	return verdict
}

// run is worker i's part of one race.
func (g *gang) run(ctx context.Context, i int) lbool {
	s := g.workers[i]
	if i == 0 && len(g.candidates) > 0 {
		if !probe(ctx, s, g.candidates) {
			return lFalse
		}
		// Publish the probe's level-0 facts so the other workers
		// prune the same placements without paying for the probing
		// themselves.
		if g.pool != nil {
			for _, l := range s.trail {
				g.pool.Export(i, []lit{l})
			}
		}
	}
	return s.search(ctx)
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

// stats reports a one-lane gang's solver counters as they are, and a
// wider gang's summed over its lanes plus the sharing counters.
func (g *gang) stats() map[string]int64 {
	st := g.workers[0].stats()
	if g.pool == nil {
		return st
	}
	st["workers"] = int64(len(g.workers))
	for _, s := range g.workers[1:] {
		st["conflicts"] += s.conflicts
		st["decisions"] += s.decisions
		st["propagations"] += s.propagations
		st["restarts"] += s.restarts
	}
	for _, n := range g.imported {
		st["shared_imported"] += n
	}
	st["shared_exported"], st["shared_refused"], st["shared_dropped"] = g.pool.Stats()
	if g.winner >= 0 {
		st["winner"] = int64(g.winner)
	}
	return st
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

// assignment reads the model's values after a satisfiable search.
func (s *solver) assignment() ilp.Assignment {
	a := make(ilp.Assignment, s.nVars)
	for v := range a {
		a[v] = s.vals[mkLit(v, false)] == lTrue
	}
	return a
}
