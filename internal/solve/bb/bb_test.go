package bb

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cgramap/internal/ilp"
	"cgramap/internal/solve/cdcl"
)

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

func TestKnapsackStyle(t *testing.T) {
	// min -(3a+4b+5c) s.t. 2a+3b+4c <= 5 => pick a,b (value 7... check:
	// a+c = 2+4=6 >5; b+c=7>5; a+b=5 ok obj -7; c alone -5).
	m := ilp.NewModel("knap")
	a := m.Binary("a")
	b := m.Binary("b")
	c := m.Binary("c")
	m.AddLE("w", []ilp.Term{{Var: a, Coef: 2}, {Var: b, Coef: 3}, {Var: c, Coef: 4}}, 5)
	m.Objective = []ilp.Term{{Var: a, Coef: -3}, {Var: b, Coef: -4}, {Var: c, Coef: -5}}
	sol, err := New().Solve(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ilp.Optimal || sol.Objective != -7 {
		t.Errorf("status=%v obj=%d, want optimal -7", sol.Status, sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	m := ilp.NewModel("inf")
	x := m.Binary("x")
	y := m.Binary("y")
	m.AddGE("c1", ilp.Sum(x, y), 2)
	m.AddLE("c2", ilp.Sum(x, y), 1)
	sol, err := New().Solve(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ilp.Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestFeasibilityOnly(t *testing.T) {
	m := ilp.NewModel("feas")
	vars := make([]ilp.Var, 6)
	for i := range vars {
		vars[i] = m.Binary(fmt.Sprintf("x%d", i))
	}
	m.AddEQ("pick2", ilp.Sum(vars...), 2)
	sol, err := New().Solve(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ilp.Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if err := m.Check(sol.Assignment); err != nil {
		t.Error(err)
	}
}

func TestCancellation(t *testing.T) {
	// A big-ish model; immediate-cancel context must return promptly
	// with Unknown or Feasible, not an error.
	m := ilp.NewModel("big")
	vars := make([]ilp.Var, 40)
	for i := range vars {
		vars[i] = m.Binary(fmt.Sprintf("x%d", i))
	}
	for i := 0; i+2 < len(vars); i++ {
		m.AddLE("c", ilp.Sum(vars[i], vars[i+1], vars[i+2]), 2)
	}
	m.Objective = ilp.Sum(vars...)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	sol, err := New().Solve(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == ilp.Infeasible {
		t.Errorf("cancelled solve claimed infeasibility")
	}
}

// randomModel builds random *general-coefficient* models (the bb engine,
// unlike cdcl, accepts any integer coefficients).
func randomModel(seed int64) *ilp.Model {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(7)
	m := ilp.NewModel("rand")
	vars := make([]ilp.Var, n)
	for i := range vars {
		vars[i] = m.Binary(fmt.Sprintf("x%d", i))
	}
	nCons := 1 + rng.Intn(8)
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
			coef := int32(rng.Intn(7) - 3)
			if coef == 0 {
				coef = 1
			}
			terms = append(terms, ilp.Term{Var: vars[v], Coef: coef})
		}
		rel := []ilp.Rel{ilp.LE, ilp.GE, ilp.EQ}[rng.Intn(3)]
		rhs := rng.Intn(2*size+2) - size
		m.Add("r", terms, rel, rhs)
	}
	if rng.Intn(2) == 0 {
		for _, v := range vars {
			if rng.Intn(3) != 0 {
				coef := int32(rng.Intn(9) - 4)
				if coef == 0 {
					coef = 2
				}
				m.Objective = append(m.Objective, ilp.Term{Var: v, Coef: coef})
			}
		}
	}
	return m
}

// TestAgainstBruteForce validates bb on random general models.
func TestAgainstBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		m := randomModel(seed)
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
				t.Logf("seed %d: obj %d, want %d", seed, sol.Objective, wantObj)
				return false
			}
			if err := m.Check(sol.Assignment); err != nil {
				t.Logf("seed %d: infeasible assignment: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestEnginesAgree: bb and cdcl agree on random unit-coefficient models —
// the cross-check DESIGN.md promises.
func TestEnginesAgree(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := ilp.NewModel("agree")
		vars := make([]ilp.Var, n)
		for i := range vars {
			vars[i] = m.Binary(fmt.Sprintf("x%d", i))
		}
		for c := 0; c < 1+rng.Intn(6); c++ {
			size := 1 + rng.Intn(min(3, n))
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
			m.Add("r", terms, []ilp.Rel{ilp.LE, ilp.GE, ilp.EQ}[rng.Intn(3)], rng.Intn(size+2)-1)
		}
		if rng.Intn(2) == 0 {
			m.Objective = ilp.Sum(vars...)
		}
		ctx := context.Background()
		s1, err1 := New().Solve(ctx, m)
		s2, err2 := cdcl.New().Solve(ctx, m)
		if err1 != nil || err2 != nil {
			t.Logf("seed %d: errs %v %v", seed, err1, err2)
			return false
		}
		if s1.Status != s2.Status {
			t.Logf("seed %d: bb=%v cdcl=%v", seed, s1.Status, s2.Status)
			return false
		}
		if s1.Status == ilp.Optimal && len(m.Objective) > 0 && s1.Objective != s2.Objective {
			t.Logf("seed %d: obj bb=%d cdcl=%d", seed, s1.Objective, s2.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
