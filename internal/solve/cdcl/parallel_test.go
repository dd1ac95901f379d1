package cdcl

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cgramap/internal/budget"
	"cgramap/internal/ilp"
)

func TestPoolLengthCapEnforced(t *testing.T) {
	p := newSharePool(3, 16)
	if p.Export(0, []lit{mkLit(0, false), mkLit(1, false), mkLit(2, false), mkLit(3, false)}) {
		t.Error("clause above the length cap was accepted")
	}
	if !p.Export(0, []lit{mkLit(0, false), mkLit(1, true)}) {
		t.Error("clause within the cap was refused")
	}
	if p.Export(0, nil) {
		t.Error("empty clause accepted")
	}
	exp, ref, _ := p.Stats()
	if exp != 1 || ref != 2 {
		t.Errorf("exported=%d refused=%d, want 1/2", exp, ref)
	}
}

func TestPoolNoSelfImport(t *testing.T) {
	p := newSharePool(8, 16)
	p.Export(0, []lit{mkLit(0, false)})
	p.Export(1, []lit{mkLit(1, false)})
	p.Export(0, []lit{mkLit(2, false)})

	var got []lit
	cursor, n := p.Import(0, 0, func(lits []lit) bool {
		got = append(got, lits...)
		return true
	})
	if n != 1 || len(got) != 1 || got[0] != mkLit(1, false) {
		t.Fatalf("owner 0 imported %v (n=%d), want only worker 1's clause", got, n)
	}
	// Re-importing from the advanced cursor delivers nothing new.
	if _, n := p.Import(0, cursor, func([]lit) bool { return true }); n != 0 {
		t.Errorf("duplicate delivery: %d clauses on second import", n)
	}
	// A different worker sees both of worker 0's clauses exactly once.
	if _, n := p.Import(2, 0, func([]lit) bool { return true }); n != 3 {
		t.Errorf("worker 2 imported %d clauses, want 3", n)
	}
}

func TestPoolRingOverflow(t *testing.T) {
	p := newSharePool(8, 4)
	for i := 0; i < 10; i++ {
		p.Export(0, []lit{mkLit(i, false)})
	}
	_, _, dropped := p.Stats()
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6", dropped)
	}
	// A cursor pointing into the dropped region clamps to the window.
	var got []lit
	if _, n := p.Import(1, 2, func(lits []lit) bool {
		got = append(got, lits...)
		return true
	}); n != 4 {
		t.Errorf("imported %d, want the 4 surviving clauses", n)
	}
	if got[0] != mkLit(6, false) {
		t.Errorf("oldest surviving clause = %v, want var 6", got[0])
	}
}

// TestPoolConcurrent hammers the pool from several exporting and
// importing goroutines (meaningful under -race): no worker may ever
// receive its own clause, and cursors must never deliver a clause twice.
func TestPoolConcurrent(t *testing.T) {
	const workers, perWorker = 4, 500
	p := newSharePool(8, 256)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor uint64
			seen := map[lit]int{}
			for i := 0; i < perWorker; i++ {
				// Each worker's clauses carry its identity in the
				// literal's variable index modulo the worker count.
				p.Export(w, []lit{mkLit(i*workers+w, false)})
				cursor, _ = p.Import(w, cursor, func(lits []lit) bool {
					seen[lits[0]]++
					return true
				})
			}
			cursor, _ = p.Import(w, cursor, func(lits []lit) bool {
				seen[lits[0]]++
				return true
			})
			for l, n := range seen {
				if l.vi()%workers == w {
					errs <- fmt.Errorf("worker %d imported its own clause %v", w, l)
					return
				}
				if n > 1 {
					errs <- fmt.Errorf("worker %d saw clause %v %d times", w, l, n)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestImportLearntSimplifies(t *testing.T) {
	s := newSolver(3)
	if !s.addFact(mkLit(0, false)) { // x0 = true at level 0
		t.Fatal("addFact failed")
	}
	// (¬x0 ∨ x1): x0 true ⇒ clause is unit, forcing x1.
	if !s.importLearnt([]lit{mkLit(0, true), mkLit(1, false)}) {
		t.Fatal("import of a unit-after-simplification clause failed")
	}
	if s.value(mkLit(1, false)) != lTrue {
		t.Error("imported unit did not force x1")
	}
	// (x0): satisfied at level 0, silently redundant.
	if !s.importLearnt([]lit{mkLit(0, false)}) {
		t.Error("satisfied clause import reported conflict")
	}
	// (¬x0): contradicts the level-0 assignment — top-level conflict.
	if s.importLearnt([]lit{mkLit(0, true)}) {
		t.Error("conflicting import not detected")
	}
	if s.ok {
		t.Error("solver still ok after top-level conflict")
	}
}

// TestParallelK1BitIdentical: a gang request that wins no budget tokens
// runs one lane, which must be indistinguishable from the default
// engine with the same seed — same status, same assignment, same
// objective, same stats, across many random models.
func TestParallelK1BitIdentical(t *testing.T) {
	prop := func(seed int64) bool {
		m := randomUnitModel(seed)
		seq, err := (&Engine{Seed: 7}).Solve(context.Background(), m)
		if err != nil {
			return true // both paths reject identically; covered below
		}
		par, err := (&Engine{Workers: 4, Seed: 7, Budget: budget.New(0)}).Solve(context.Background(), m)
		if err != nil {
			t.Logf("seed %d: gang request errored where one lane did not: %v", seed, err)
			return false
		}
		if seq.Status != par.Status || seq.Objective != par.Objective ||
			!reflect.DeepEqual(seq.Assignment, par.Assignment) ||
			!reflect.DeepEqual(seq.Stats, par.Stats) {
			t.Logf("seed %d: K=1 parallel diverged: %+v vs %+v", seed, seq, par)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestParallelAgainstBruteForce: a 4-worker clause-sharing gang agrees
// with exhaustive enumeration on feasibility and the optimal objective.
func TestParallelAgainstBruteForce(t *testing.T) {
	pool := budget.New(8)
	prop := func(seed int64) bool {
		m := randomUnitModel(seed)
		wantStatus, wantObj := bruteForce(m)
		e := &Engine{Workers: 4, Seed: seed, Budget: pool}
		sol, err := e.Solve(context.Background(), m)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if sol.Status != wantStatus {
			t.Logf("seed %d: status %v, want %v", seed, sol.Status, wantStatus)
			return false
		}
		if wantStatus == ilp.Optimal {
			if sol.Objective != wantObj {
				t.Logf("seed %d: objective %d, want %d", seed, sol.Objective, wantObj)
				return false
			}
			if err := m.Check(sol.Assignment); err != nil {
				t.Logf("seed %d: infeasible assignment returned: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func buildPigeonhole(n int) *ilp.Model {
	m := ilp.NewModel(fmt.Sprintf("php%d", n))
	x := make([][]ilp.Var, n+1)
	for p := range x {
		x[p] = make([]ilp.Var, n)
		for h := 0; h < n; h++ {
			x[p][h] = m.Binary(fmt.Sprintf("p%dh%d", p, h))
		}
		m.AddGE("placed", ilp.Sum(x[p]...), 1)
	}
	for h := 0; h < n; h++ {
		col := make([]ilp.Var, n+1)
		for p := range x {
			col[p] = x[p][h]
		}
		m.AddLE("cap", ilp.Sum(col...), 1)
	}
	return m
}

// TestParallelUnsatProof: the gang proves pigeonhole infeasibility (an
// UNSAT proof must survive clause sharing) and reports gang stats.
func TestParallelUnsatProof(t *testing.T) {
	e := &Engine{Workers: 4, Seed: 3, Budget: budget.New(8)}
	e.shareMaxLen = 32 // pigeonhole learnt clauses are mid-length
	sol, err := e.Solve(context.Background(), buildPigeonhole(6))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ilp.Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
	if sol.Stats["workers"] < 2 {
		t.Errorf("workers = %d, want >= 2 (budget had tokens)", sol.Stats["workers"])
	}
	if _, ok := sol.Stats["shared_exported"]; !ok {
		t.Error("stats missing shared_exported")
	}
}

func TestParallelOptimization(t *testing.T) {
	m := ilp.NewModel("cover")
	const n = 5
	v := make([]ilp.Var, n)
	for i := range v {
		v[i] = m.Binary(fmt.Sprintf("v%d", i))
	}
	for i := 0; i < n; i++ {
		m.AddGE("edge", ilp.Sum(v[i], v[(i+1)%n]), 1)
	}
	m.Objective = ilp.Sum(v...)
	e := &Engine{Workers: 3, Seed: 1, Budget: budget.New(4)}
	sol, err := e.Solve(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ilp.Optimal || sol.Objective != 3 {
		t.Errorf("status=%v obj=%d, want optimal 3", sol.Status, sol.Objective)
	}
}

func TestParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &Engine{Workers: 4, Seed: 1, Budget: budget.New(4)}
	sol, err := e.Solve(ctx, buildPigeonhole(4))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ilp.Unknown || sol.Stats["cancelled"] != 1 {
		t.Errorf("pre-cancelled solve: status=%v stats=%v, want unknown+cancelled", sol.Status, sol.Stats)
	}

	// Mid-solve cancellation: a hard instance under a tiny deadline must
	// come back unknown (or a genuinely finished proof), never hang.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	e2 := &Engine{Workers: 4, Seed: 1, Budget: budget.New(4)}
	sol2, err := e2.Solve(ctx2, buildPigeonhole(9))
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Status != ilp.Unknown && sol2.Status != ilp.Infeasible {
		t.Errorf("status = %v, want unknown or infeasible", sol2.Status)
	}
}

// TestParallelBudgetExhausted: with an empty budget the engine runs one
// lane (no gang bookkeeping in the stats).
func TestParallelBudgetExhausted(t *testing.T) {
	m := ilp.NewModel("sat")
	x := m.Binary("x")
	m.AddGE("up", ilp.Sum(x), 1)
	e := &Engine{Workers: 8, Seed: 5, Budget: budget.New(0)}
	sol, err := e.Solve(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ilp.Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if _, ok := sol.Stats["workers"]; ok {
		t.Error("one-lane run still reports gang stats")
	}
	if e.Budget.InUse() != 0 {
		t.Error("budget tokens leaked")
	}
}
