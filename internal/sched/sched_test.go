package sched

import (
	"testing"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
	"cgramap/internal/mrrg"
)

func singleCtxMRRG(t *testing.T, spec arch.GridSpec) *mrrg.Graph {
	t.Helper()
	mg, err := mrrg.Generate(grid(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	return mg
}

// grid builds the single-context architecture of a grid spec.
func grid(t *testing.T, spec arch.GridSpec) *arch.Arch {
	t.Helper()
	spec.Contexts = 1
	a, err := arch.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestLevelsChain(t *testing.T) {
	g := dfg.New("chain")
	x := g.In("x")
	a := g.Add("a", x, x)
	b := g.Add("b", a, x)
	g.Out("o", b)
	l, err := ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	if l.Depth != 3 {
		t.Errorf("depth = %d, want 3", l.Depth)
	}
	// x is needed directly by both adds: it has zero mobility only if
	// on the critical path; here ASAP(x)=0, ALAP(x)=... x feeds b at
	// level 2, so ALAP(x)=1? No: ALAP = depth - tail; tail(x) = 3.
	if l.ASAP[g.OpByName("x").ID] != 0 || l.Mobility(g.OpByName("x").ID) != 0 {
		t.Errorf("x: asap=%d mobility=%d", l.ASAP[g.OpByName("x").ID], l.Mobility(g.OpByName("x").ID))
	}
	if l.ASAP[g.OpByName("o").ID] != 3 || l.ALAP[g.OpByName("o").ID] != 3 {
		t.Errorf("o levels wrong")
	}
}

func TestLevelsMobility(t *testing.T) {
	// Diamond with a short side: the short-side op has slack.
	g := dfg.New("d")
	x := g.In("x")
	l1 := g.Add("l1", x, x)
	l2 := g.Add("l2", l1, x)
	short := g.Add("short", x, x)
	join := g.Add("join", l2, short)
	g.Out("o", join)
	l, err := ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	if l.Mobility(g.OpByName("short").ID) != 1 {
		t.Errorf("short mobility = %d, want 1", l.Mobility(g.OpByName("short").ID))
	}
	if l.Mobility(g.OpByName("l1").ID) != 0 {
		t.Errorf("l1 mobility = %d, want 0 (critical)", l.Mobility(g.OpByName("l1").ID))
	}
}

func TestLevelsRejectCycles(t *testing.T) {
	g := dfg.New("loop")
	a := g.In("a")
	op, _ := g.AddOp("acc", dfg.Add, a, a)
	old := op.In[1]
	op.In[1] = op.Out
	old.Uses = old.Uses[:1]
	op.Out.Uses = append(op.Out.Uses, dfg.Use{Op: op, Operand: 1})
	if _, err := ComputeLevels(g); err == nil {
		t.Error("cyclic graph accepted")
	}
}

func TestResMIIMultipliers(t *testing.T) {
	hetero := grid(t, arch.GridSpec{Rows: 4, Cols: 4})
	homo := grid(t, arch.GridSpec{Rows: 4, Cols: 4, Homogeneous: true})

	// mult_16: 15 multiplies. Hetero has 8 multiplier slots -> ResMII
	// 2; homo has 16 -> ResMII 1.
	g := bench.MustGet("mult_16")
	if mii, err := ResMII(g, hetero); err != nil || mii != 2 {
		t.Errorf("hetero ResMII = %d, %v; want 2", mii, err)
	}
	if mii, err := ResMII(g, homo); err != nil || mii != 1 {
		t.Errorf("homo ResMII = %d, %v; want 1", mii, err)
	}
	// extreme: 19 ALU ops on 16 ALUs -> ResMII 2 even homogeneous.
	if mii, err := ResMII(bench.MustGet("extreme"), homo); err != nil || mii != 2 {
		t.Errorf("extreme homo ResMII = %d, %v; want 2", mii, err)
	}
}

func TestResMIIUnsupported(t *testing.T) {
	g := dfg.New("d")
	x := g.In("x")
	op, _ := g.AddOp("q", dfg.Div, x, x)
	g.Out("o", op.Out)
	if _, err := ResMII(g, grid(t, arch.GridSpec{Rows: 2, Cols: 2})); err == nil {
		t.Error("unsupported kind accepted")
	}
	// Multi-context MRRG rejected.
	spec := arch.GridSpec{Rows: 2, Cols: 2, Contexts: 2}
	a, _ := arch.Grid(spec)
	mg2, _ := mrrg.Generate(a)
	if _, err := MII(bench.MustGet("accum"), mg2); err == nil {
		t.Error("multi-context MRRG accepted")
	}
}

func TestRecMII(t *testing.T) {
	// Acyclic: 1.
	if got := RecMII(bench.MustGet("accum")); got != 1 {
		t.Errorf("acyclic RecMII = %d", got)
	}
	// Two-op recurrence: acc = add(x, t), t = not(acc) -> cycle length 2.
	g := dfg.New("rec2")
	x := g.In("x")
	acc, _ := g.AddOp("acc", dfg.Add, x, x)
	not, _ := g.AddOp("neg", dfg.Not, acc.Out)
	// back-edge: acc operand 1 := not's output
	old := acc.In[1]
	acc.In[1] = not.Out
	old.Uses = old.Uses[:1]
	not.Out.Uses = append(not.Out.Uses, dfg.Use{Op: acc, Operand: 1})
	g.Out("o", acc.Out)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := RecMII(g); got != 2 {
		t.Errorf("RecMII = %d, want 2", got)
	}
}

func TestMIICombines(t *testing.T) {
	hetero := singleCtxMRRG(t, arch.GridSpec{Rows: 4, Cols: 4})
	mii, err := MII(bench.MustGet("cos_4"), hetero)
	if err != nil {
		t.Fatal(err)
	}
	// 12 multiplies vs 8 slots -> 2.
	if mii != 2 {
		t.Errorf("cos_4 hetero MII = %d, want 2", mii)
	}
}

func TestAllBenchmarksMIIAtMostTwo(t *testing.T) {
	// The paper maps every benchmark with two contexts on homogeneous
	// hardware; the MII bound must agree (<= 2 on homo).
	homo := singleCtxMRRG(t, arch.GridSpec{Rows: 4, Cols: 4, Homogeneous: true})
	for _, name := range bench.Names() {
		mii, err := MII(bench.MustGet(name), homo)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if mii > 2 {
			t.Errorf("%s: MII = %d > 2 contradicts the paper's dual-context results", name, mii)
		}
	}
}
