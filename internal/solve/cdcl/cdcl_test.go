package cdcl

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"cgramap/internal/ilp"
)

// bruteForce enumerates every assignment of m (NumVars <= ~20) and
// returns the status and optimal objective.
func bruteForce(m *ilp.Model) (ilp.Status, int) {
	n := m.NumVars()
	bestObj := 0
	found := false
	for mask := 0; mask < 1<<n; mask++ {
		a := make(ilp.Assignment, n)
		for v := 0; v < n; v++ {
			a[v] = mask&(1<<v) != 0
		}
		if m.Check(a) != nil {
			continue
		}
		obj := a.Eval(m.Objective)
		if !found || obj < bestObj {
			bestObj = obj
			found = true
		}
	}
	if !found {
		return ilp.Infeasible, 0
	}
	return ilp.Optimal, bestObj
}

func solve(t *testing.T, m *ilp.Model) *ilp.Solution {
	t.Helper()
	sol, err := New().Solve(context.Background(), m)
	if err != nil {
		t.Fatalf("Solve(%s): %v", m.Name, err)
	}
	return sol
}

func TestTrivial(t *testing.T) {
	m := ilp.NewModel("sat")
	x := m.Binary("x")
	y := m.Binary("y")
	m.AddGE("or", ilp.Sum(x, y), 1)
	sol := solve(t, m)
	if sol.Status != ilp.Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !sol.Assignment[x] && !sol.Assignment[y] {
		t.Error("neither x nor y true")
	}
	if err := m.Check(sol.Assignment); err != nil {
		t.Error(err)
	}

	m2 := ilp.NewModel("unsat")
	z := m2.Binary("z")
	m2.AddGE("up", ilp.Sum(z), 1)
	m2.AddLE("down", ilp.Sum(z), 0)
	if sol := solve(t, m2); sol.Status != ilp.Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestExactlyOneChain(t *testing.T) {
	// n groups, exactly one per group, with cross-group implications.
	m := ilp.NewModel("chain")
	const n = 20
	vars := make([][3]ilp.Var, n)
	for i := range vars {
		for j := 0; j < 3; j++ {
			vars[i][j] = m.Binary(fmt.Sprintf("x_%d_%d", i, j))
		}
		m.AddEQ("one", ilp.Sum(vars[i][0], vars[i][1], vars[i][2]), 1)
	}
	// x[i][0] -> x[i+1][0]: forces a cascade once x[0][0] is chosen.
	for i := 0; i+1 < n; i++ {
		m.AddLE("imp", []ilp.Term{{Var: vars[i][0], Coef: 1}, {Var: vars[i+1][0], Coef: -1}}, 0)
	}
	m.AddGE("start", ilp.Sum(vars[0][0]), 1)
	sol := solve(t, m)
	if sol.Status != ilp.Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	for i := range vars {
		if !sol.Assignment[vars[i][0]] {
			t.Fatalf("cascade broken at %d", i)
		}
	}
}

// TestPigeonhole: n+1 pigeons in n holes is infeasible — exercises the
// UNSAT-proving path the paper relies on for the '0' entries of Table 2.
func TestPigeonhole(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6} {
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
		if sol := solve(t, m); sol.Status != ilp.Infeasible {
			t.Errorf("php%d: status = %v, want infeasible", n, sol.Status)
		}
	}
}

func TestOptimization(t *testing.T) {
	// Minimum vertex cover of a 5-cycle = 3.
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
	sol := solve(t, m)
	if sol.Status != ilp.Optimal || sol.Objective != 3 {
		t.Errorf("status=%v obj=%d, want optimal 3", sol.Status, sol.Objective)
	}
	if err := m.Check(sol.Assignment); err != nil {
		t.Error(err)
	}
}

func TestNegativeObjective(t *testing.T) {
	// Maximise an independent set via negative unit coefficients.
	m := ilp.NewModel("indep")
	a := m.Binary("a")
	b := m.Binary("b")
	c := m.Binary("c")
	m.AddLE("ab", ilp.Sum(a, b), 1)
	m.AddLE("bc", ilp.Sum(b, c), 1)
	m.Objective = []ilp.Term{{Var: a, Coef: -1}, {Var: b, Coef: -1}, {Var: c, Coef: -1}}
	sol := solve(t, m)
	if sol.Status != ilp.Optimal || sol.Objective != -2 {
		t.Errorf("status=%v obj=%d, want optimal -2 (pick a and c)", sol.Status, sol.Objective)
	}
}

func TestNonUnitCoefficientRejected(t *testing.T) {
	m := ilp.NewModel("bad")
	x := m.Binary("x")
	m.AddLE("c", []ilp.Term{{Var: x, Coef: 2}}, 1)
	if _, err := New().Solve(context.Background(), m); err == nil {
		t.Error("non-unit coefficient accepted")
	}
	m2 := ilp.NewModel("badobj")
	y := m2.Binary("y")
	m2.Objective = []ilp.Term{{Var: y, Coef: 3}}
	if _, err := New().Solve(context.Background(), m2); err == nil {
		t.Error("non-unit objective accepted")
	}
}

func TestMergedDuplicateTerms(t *testing.T) {
	// x - x cancels to 0; constraint 0 <= 0 holds trivially.
	m := ilp.NewModel("cancel")
	x := m.Binary("x")
	y := m.Binary("y")
	m.AddLE("c", []ilp.Term{{Var: x, Coef: 1}, {Var: x, Coef: -1}, {Var: y, Coef: 1}}, 0)
	sol := solve(t, m)
	if sol.Status != ilp.Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Assignment[y] {
		t.Error("y should be forced false")
	}
}

func TestCancellationReturnsBestEffort(t *testing.T) {
	// A model large enough not to finish instantly: pigeonhole 9/8.
	m := ilp.NewModel("php-big")
	const n = 8
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
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	sol, err := New().Solve(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	// Either it finished (infeasible) or it reports unknown — never an
	// unproven claim.
	if sol.Status != ilp.Infeasible && sol.Status != ilp.Unknown {
		t.Errorf("status = %v, want infeasible or unknown", sol.Status)
	}
}

func TestEmptyModel(t *testing.T) {
	m := ilp.NewModel("empty")
	sol := solve(t, m)
	if sol.Status != ilp.Optimal {
		t.Errorf("empty model: %v", sol.Status)
	}
}

// randomUnitModel builds a random unit-coefficient model comparable
// against brute force.
func randomUnitModel(seed int64) *ilp.Model {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(8) // 3..10 vars
	m := ilp.NewModel("rand")
	vars := make([]ilp.Var, n)
	for i := range vars {
		vars[i] = m.Binary(fmt.Sprintf("x%d", i))
	}
	nCons := 2 + rng.Intn(10)
	for c := 0; c < nCons; c++ {
		size := 1 + rng.Intn(min(4, n))
		var terms []ilp.Term
		used := map[int]bool{}
		for len(terms) < size {
			v := rng.Intn(n)
			if used[v] {
				continue
			}
			used[v] = true
			coef := int32(1)
			if rng.Intn(3) == 0 {
				coef = -1
			}
			terms = append(terms, ilp.Term{Var: vars[v], Coef: coef})
		}
		rel := []ilp.Rel{ilp.LE, ilp.GE, ilp.EQ}[rng.Intn(3)]
		rhs := rng.Intn(size+2) - 1
		m.Add("r", terms, rel, rhs)
	}
	if rng.Intn(2) == 0 {
		for _, v := range vars {
			coef := int32(1)
			if rng.Intn(4) == 0 {
				coef = -1
			}
			if rng.Intn(3) != 0 {
				m.Objective = append(m.Objective, ilp.Term{Var: v, Coef: coef})
			}
		}
	}
	return m
}

// TestAgainstBruteForce: the engine agrees with exhaustive enumeration on
// feasibility and optimal objective for random unit-coefficient models.
func TestAgainstBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		m := randomUnitModel(seed)
		wantStatus, wantObj := bruteForce(m)
		sol, err := New().Solve(context.Background(), m)
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
				t.Logf("seed %d: returned assignment infeasible: %v", seed, err)
				return false
			}
			if sol.Assignment.Eval(m.Objective) != sol.Objective {
				t.Logf("seed %d: reported objective mismatches assignment", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	m := ilp.NewModel("s")
	x := m.Binary("x")
	m.AddGE("c", ilp.Sum(x), 1)
	sol := solve(t, m)
	if sol.Stats == nil {
		t.Fatal("stats nil")
	}
	if _, ok := sol.Stats["decisions"]; !ok {
		t.Error("stats missing decisions")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

// TestWatchRegrowRecycles: a watch list that outgrows its array keeps its
// watchers in order, and the array it leaves behind is the one the next
// list growing to that capacity moves into.
func TestWatchRegrowRecycles(t *testing.T) {
	s := newSolver(2)
	a, b := mkLit(0, false), mkLit(1, false)
	var want []watcher
	for i := int32(0); i < 9; i++ { // capacity 0, 4, 8, then 16
		w := watcher{c: i, blocker: b}
		s.watch(a, w)
		want = append(want, w)
	}
	if got := s.watches[a]; !reflect.DeepEqual(got, want) || cap(got) != 16 {
		t.Fatalf("list a = %v (cap %d), want %v (cap 16)", got, cap(got), want)
	}
	if len(s.spare[2]) != 1 || len(s.spare[3]) != 1 {
		t.Fatalf("spares after a grew: %d of capacity 4, %d of capacity 8; want 1 and 1", len(s.spare[2]), len(s.spare[3]))
	}
	first := func(ws []watcher) *watcher { return &ws[:1][0] }
	left4, left8 := first(s.spare[2][0]), first(s.spare[3][0])

	want = want[:0]
	for i := int32(0); i < 5; i++ {
		w := watcher{c: 100 + i, blocker: a}
		s.watch(b, w)
		want = append(want, w)
		switch {
		case i < 4 && first(s.watches[b]) != left4:
			t.Fatalf("list b with %d watchers is not in the array a left at capacity 4", i+1)
		case i == 4 && first(s.watches[b]) != left8:
			t.Fatal("list b with 5 watchers is not in the array a left at capacity 8")
		}
	}
	if got := s.watches[b]; !reflect.DeepEqual(got, want) {
		t.Fatalf("list b = %v, want %v", got, want)
	}
	if len(s.spare[2]) != 1 || len(s.spare[3]) != 0 || first(s.spare[2][0]) != left4 {
		t.Fatalf("spares after b grew: %d of capacity 4, %d of capacity 8; want b's old array and none", len(s.spare[2]), len(s.spare[3]))
	}
}
