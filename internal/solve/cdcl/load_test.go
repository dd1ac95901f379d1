package cdcl

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cgramap/internal/ilp"
)

// refNormalizeLE normalizes one constraint half the direct way, merging
// in a map and sorting with sort.Slice: the reference normalizer.
func refNormalizeLE(terms []ilp.Term, rhs int, flip bool) ([]lit, int, error) {
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
	var lits []lit
	k := rhs
	for v, c := range merged {
		switch c {
		case 0:
		case 1:
			lits = append(lits, mkLit(int(v), false))
		case -1:
			lits = append(lits, mkLit(int(v), true))
			k++
		default:
			return nil, 0, fmt.Errorf("cdcl: coefficient %d on variable %d not supported (unit coefficients only)", c, int(v))
		}
	}
	sort.Slice(lits, func(i, j int) bool { return lits[i] < lits[j] })
	return lits, k, nil
}

// refCompile is the reference loader: seed first, then every
// constraint half normalized on its own and installed with addAtMost,
// which attaches it at once.
func refCompile(m *ilp.Model, seed int64) (*solver, error) {
	s := newSolver(m.NumVars())
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
			s.activity[v] += rng.Float64() * 0.4
			if m.PhaseHint(ilp.Var(v)) {
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
	for i := range m.Constraints {
		c := &m.Constraints[i]
		for _, flip := range [2]bool{false, true} {
			if !flip && c.Rel == ilp.GE || flip && c.Rel == ilp.LE {
				continue
			}
			lits, k, err := refNormalizeLE(c.Terms, c.RHS, flip)
			if err != nil {
				return nil, fmt.Errorf("%s constraint %q: %w", m.Name, c.Name, err)
			}
			if !s.addAtMost(lits, k) {
				return s, nil
			}
		}
	}
	return s, nil
}

// loadModel builds a random unit model that exercises every loader
// path: duplicate variables, +1/-1 cancellation, LE/GE/EQ, bounds that
// give facts (k = 0), clauses (k = len-1), cards, trivially true halves
// and root conflicts, with facts arriving between other constraints.
func loadModel(seed int64) *ilp.Model {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(20)
	m := ilp.NewModel("load")
	for i := 0; i < n; i++ {
		m.Binary(fmt.Sprintf("x%d", i))
	}
	for c := 0; c < 3+rng.Intn(25); c++ {
		size := 1 + rng.Intn(min(6, n))
		var terms []ilp.Term
		for _, v := range rng.Perm(n)[:size] {
			coef := 1
			if rng.Intn(3) == 0 {
				coef = -1
			}
			terms = append(terms, ilp.Term{Var: ilp.Var(v), Coef: coef})
			switch rng.Intn(100) {
			case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9: // cancels out
				terms = append(terms, ilp.Term{Var: ilp.Var(v), Coef: -coef})
			case 10, 11, 12, 13, 14: // cancels, then reappears
				terms = append(terms, ilp.Term{Var: ilp.Var(v), Coef: -coef}, ilp.Term{Var: ilp.Var(v), Coef: coef})
			case 15: // merges to a non-unit coefficient
				terms = append(terms, ilp.Term{Var: ilp.Var(v), Coef: coef})
			}
		}
		rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		rel := []ilp.Rel{ilp.LE, ilp.LE, ilp.GE, ilp.EQ}[rng.Intn(4)]
		rhs := rng.Intn(size + 1)
		if rel == ilp.GE {
			rhs = rng.Intn(size+1) - size/2
		}
		m.Add("r", terms, rel, rhs)
	}
	for v := 0; v < n; v++ {
		if rng.Intn(3) == 0 {
			m.SetBranchPriority(ilp.Var(v), rng.Intn(3))
		}
		m.SetPhaseHint(ilp.Var(v), rng.Intn(4) == 0)
	}
	return m
}

// diffSolvers returns the first difference between two solvers' loaded
// state, or "" when they agree field by field. Nil and empty lists are
// equal.
func diffSolvers(got, want *solver) string {
	if got.ok != want.ok || got.nClauses != want.nClauses || got.qhead != want.qhead ||
		got.varInc != want.varInc || got.claInc != want.claInc {
		return fmt.Sprintf("scalars: ok %v/%v clauses %d/%d qhead %d/%d",
			got.ok, want.ok, got.nClauses, want.nClauses, got.qhead, want.qhead)
	}
	if len(got.ca) != len(want.ca) || len(got.learnts) != len(want.learnts) {
		return fmt.Sprintf("clause slab %d/%d learnts %d/%d", len(got.ca), len(want.ca), len(got.learnts), len(want.learnts))
	}
	for i := range got.ca {
		g, w := got.ca[i], want.ca[i]
		if !slices.Equal(g.lits, w.lits) || g.act != w.act {
			return fmt.Sprintf("clause %d: %v vs %v", i, g, w)
		}
	}
	if len(got.cards) != len(want.cards) {
		return fmt.Sprintf("cards %d/%d", len(got.cards), len(want.cards))
	}
	for i := range got.cards {
		g, w := got.cards[i], want.cards[i]
		if !slices.Equal(g.lits, w.lits) || g.k != w.k || g.count != w.count {
			return fmt.Sprintf("card %d: %v vs %v", i, g, w)
		}
	}
	for l := range got.watches {
		if !slices.Equal(got.watches[l], want.watches[l]) {
			return fmt.Sprintf("watches[%d]: %v vs %v", l, got.watches[l], want.watches[l])
		}
		if !slices.Equal(got.cardsOf(lit(l)), want.cardsOf(lit(l))) {
			return fmt.Sprintf("cards of %d: %v vs %v", l, got.cardsOf(lit(l)), want.cardsOf(lit(l)))
		}
	}
	for _, f := range []struct {
		name string
		eq   bool
	}{
		{"vals", slices.Equal(got.vals, want.vals)},
		{"trail", slices.Equal(got.trail, want.trail)},
		{"vd", slices.Equal(got.vd, want.vd)},
		{"activity", slices.Equal(got.activity, want.activity)},
		{"phase", slices.Equal(got.phase, want.phase)},
		{"seen", slices.Equal(got.seen, want.seen)},
		{"heap", slices.Equal(got.heap.heap, want.heap.heap)},
		{"heap pos", slices.Equal(got.heap.pos, want.heap.pos)},
	} {
		if !f.eq {
			return f.name
		}
	}
	return ""
}

// TestLoadMatchesReference: on random unit models, load gives exactly the
// solver the per-constraint reference loader gives — clause and card
// literal lists, facts, per-literal watch order, card occurrence lists
// and card counts — unseeded and seeded.
func TestLoadMatchesReference(t *testing.T) {
	kinds := map[string]int{}
	for seed := int64(0); seed < 1500; seed++ {
		m := loadModel(seed)
		for _, solverSeed := range []int64{0, seed + 1} {
			got, gerr := compile(m, solverSeed)
			want, werr := refCompile(m, solverSeed)
			if (gerr != nil) != (werr != nil) {
				t.Fatalf("seed %d: error %v, reference %v", seed, gerr, werr)
			}
			if gerr != nil {
				kinds["error"]++
				continue
			}
			if d := diffSolvers(got, want); d != "" {
				t.Fatalf("seed %d/%d: loaded solver differs from reference: %s", seed, solverSeed, d)
			}
			if !got.ok {
				kinds["root conflict"]++
			} else {
				kinds["loaded"]++
			}
			if len(got.trail) > 0 && len(got.cards) > 0 && len(got.ca) > 0 {
				kinds["facts, clauses and cards"]++
			}
			for _, c := range got.cards {
				if c.count > 0 {
					kinds["card counted at load"]++
					break
				}
			}
		}
	}
	// The generator must reach every path it is meant to.
	for _, k := range []string{"error", "root conflict", "loaded", "facts, clauses and cards", "card counted at load"} {
		if kinds[k] < 20 {
			t.Errorf("too few models exercised %q (%v)", k, kinds)
		}
	}
}

// TestGangLanesCloneCompile: every gang lane, cloned from the one loaded
// solver, equals a solver compiled on its own with the lane's seed, and
// stays so while another lane searches.
func TestGangLanesCloneCompile(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		m := loadModel(seed)
		e := &Engine{Seed: seed}
		g, err := e.load(m, nil, 4)
		if err != nil {
			continue
		}
		check := func(when string) {
			for i, w := range g.workers {
				if i == 1 {
					continue // the lane that searched
				}
				want, _ := compile(m, mixSeed(seed, i))
				if d := diffSolvers(w, want); d != "" {
					t.Fatalf("seed %d lane %d %s: %s", seed, i, when, d)
				}
			}
		}
		check("after load")
		g.workers[1].search(context.Background())
		check("after lane 1 searched")
	}
}

// compileAllocModel is a mapping-shaped model over n variables (n a
// multiple of 5): pairwise conflicts (clauses), exactly-one groups
// (cards and clauses), at-most-two groups (cards) and a root fact.
func compileAllocModel(n int) *ilp.Model {
	m := ilp.NewModel("allocs")
	vars := make([]ilp.Var, n)
	for i := range vars {
		vars[i] = m.Binary(fmt.Sprintf("x%d", i))
		m.SetBranchPriority(vars[i], i%2)
	}
	for i := 0; i+5 <= n; i += 5 {
		g := vars[i : i+5]
		m.AddEQ("one", ilp.Sum(g...), 1)
		m.AddLE("pair", ilp.Sum(g[0], g[1]), 1)
		if i+10 <= n {
			m.AddLE("two", ilp.Sum(g[2], g[3], g[4], vars[i+5], vars[i+6]), 2)
		}
	}
	m.AddLE("fact", ilp.Sum(vars[0]), 0)
	m.Objective = ilp.Sum(vars...)
	return m
}

// TestCompileAllocationsConstant: compile allocates a fixed number of
// objects whatever the model's size.
func TestCompileAllocationsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		m := compileAllocModel(n)
		return testing.AllocsPerRun(5, func() {
			if _, err := compile(m, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(20000)
	if small != large {
		t.Errorf("compile allocations grow with the model: %v at 10 variables, %v at 20000", small, large)
	}
	if large > 100 {
		t.Errorf("compile makes %v allocations, want at most 100", large)
	}
}

// TestCompileReportsSize: Compile reports the loaded formula's size and
// rejects a malformed model instead of loading it.
func TestCompileReportsSize(t *testing.T) {
	got, err := Compile(compileAllocModel(10))
	if err != nil {
		t.Fatal(err)
	}
	// Per group of five: the exactly-one's <= half is a card, its >= half
	// and the pair are clauses; the first group's at-most-two is a card;
	// x0 <= 0 is a fact.
	if want := map[string]int64{"clauses": 4, "cards": 3, "facts": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Compile = %v, want %v", got, want)
	}
	bad := ilp.NewModel("bad")
	bad.AddLE("undeclared", []ilp.Term{{Var: 7, Coef: 1}}, 0)
	if _, err := Compile(bad); err == nil {
		t.Error("Compile accepted a constraint over an undeclared variable")
	}
}

// TestNonUnitErrorDeterministic: a constraint (or objective) with several
// non-unit coefficients is rejected with one fixed message naming the
// first offending term in model order.
func TestNonUnitErrorDeterministic(t *testing.T) {
	m := ilp.NewModel("bad")
	var vs []ilp.Var
	for i := 0; i < 6; i++ {
		vs = append(vs, m.Binary(fmt.Sprintf("x%d", i)))
	}
	m.AddLE("ok", ilp.Sum(vs...), 3)
	m.AddLE("multi", []ilp.Term{{Var: vs[4], Coef: 1}, {Var: vs[3], Coef: 2},
		{Var: vs[1], Coef: -3}, {Var: vs[4], Coef: 1}, {Var: vs[5], Coef: 4}}, 2)
	const want = `bad constraint "multi": cdcl: coefficient 2 on variable 4 not supported (unit coefficients only)`

	obj := ilp.NewModel("badobj")
	for i := 0; i < 4; i++ {
		v := obj.Binary(fmt.Sprintf("y%d", i))
		obj.Objective = append(obj.Objective, ilp.Term{Var: v, Coef: 2 + i})
	}
	const wantObj = "cdcl: objective coefficient 2 not supported (unit coefficients only)"

	for i := 0; i < 20; i++ {
		if _, err := New().Solve(context.Background(), m); err == nil || err.Error() != want {
			t.Fatalf("solve %d: error %v, want %s", i, err, want)
		}
		if _, err := New().Solve(context.Background(), obj); err == nil || err.Error() != wantObj {
			t.Fatalf("solve %d: objective error %v, want %s", i, err, wantObj)
		}
	}
}

// cancelledCtx reports cancellation from its first Err call.
type cancelledCtx struct{ context.Context }

func (cancelledCtx) Err() error { return context.Canceled }

// TestProbeObservesDeadline: a probing round in which no literal fails
// still stops within a bounded number of candidates once the context is
// cancelled; with a live context it probes every candidate.
func TestProbeObservesDeadline(t *testing.T) {
	const n = 1000
	m := ilp.NewModel("no-fail")
	candidates := make([]int, n)
	for i := range candidates {
		m.Binary(fmt.Sprintf("x%d", i))
		candidates[i] = i
	}
	probed := func(ctx context.Context) int64 {
		s, err := compile(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !probe(ctx, s, candidates) {
			t.Fatal("probing refuted a constraint-free model")
		}
		return s.propagations // one per probed candidate
	}
	if got := probed(cancelledCtx{context.Background()}); got > probeCheckInterval {
		t.Errorf("cancelled probe tried %d candidates, want at most %d", got, probeCheckInterval)
	}
	if got := probed(context.Background()); got != n {
		t.Errorf("live probe tried %d candidates, want %d", got, n)
	}
}
