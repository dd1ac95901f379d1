package cdcl

import (
	"context"
	"fmt"
	"testing"

	"cgramap/internal/ilp"
)

// TestProbingFixesFailedLiterals: a prioritised variable whose assignment
// propagates to a contradiction must be fixed false at the root, and the
// answers with and without probing must agree.
func TestProbingFixesFailedLiterals(t *testing.T) {
	build := func() *ilp.Model {
		m := ilp.NewModel("probe")
		x := m.Binary("x")
		y := m.Binary("y")
		z := m.Binary("z")
		// x -> y and x -> ¬y: x is a failed literal.
		m.AddLE("c1", []ilp.Term{{Var: x, Coef: 1}, {Var: y, Coef: -1}}, 0)
		m.AddLE("c2", []ilp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, 1)
		m.AddGE("c3", ilp.Sum(x, z), 1)
		m.SetBranchPriority(x, 1)
		return m
	}
	withProbe, err := New().Solve(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	without, err := (&Engine{noProbe: true}).Solve(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	if withProbe.Status != ilp.Optimal || without.Status != ilp.Optimal {
		t.Fatalf("status with=%v without=%v", withProbe.Status, without.Status)
	}
	if withProbe.Assignment[0] {
		t.Error("failed literal x assigned true")
	}
}

// TestProbingPreservesAnswers: probing never changes the verdict on
// random unit models when every variable is prioritised.
func TestProbingPreservesAnswers(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		m1 := randomUnitModel(seed)
		for v := 0; v < m1.NumVars(); v++ {
			m1.SetBranchPriority(ilp.Var(v), 1)
		}
		m2 := randomUnitModel(seed)
		s1, err := New().Solve(context.Background(), m1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := (&Engine{noProbe: true}).Solve(context.Background(), m2)
		if err != nil {
			t.Fatal(err)
		}
		if s1.Status != s2.Status {
			t.Fatalf("seed %d: probing changed status %v -> %v", seed, s2.Status, s1.Status)
		}
		if s1.Status == ilp.Optimal && s1.Objective != s2.Objective {
			t.Fatalf("seed %d: probing changed objective %d -> %d", seed, s2.Objective, s1.Objective)
		}
	}
}

// TestProbingprovesRootInfeasibility: when probing alone refutes every
// branch of an exactly-one group, the instance is infeasible without
// search.
func TestProbingProvesRootInfeasibility(t *testing.T) {
	m := ilp.NewModel("dead-group")
	var group []ilp.Var
	blocker := m.Binary("b")
	m.AddGE("force-b", ilp.Sum(blocker), 1)
	for i := 0; i < 3; i++ {
		v := m.Binary(fmt.Sprintf("g%d", i))
		m.SetBranchPriority(v, 1)
		group = append(group, v)
		// each group member contradicts b
		m.AddLE("clash", ilp.Sum(v, blocker), 1)
	}
	m.AddGE("one-of", ilp.Sum(group...), 1)
	sol, err := New().Solve(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ilp.Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}
