package cgramap

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestQuickstartFlow exercises the facade end to end the way the README
// quickstart does (the paper's Fig. 7 flow).
func TestQuickstartFlow(t *testing.T) {
	a := MustGrid(GridSpec{Rows: 4, Cols: 4, Interconnect: Diagonal, Homogeneous: true, Contexts: 2})
	m := MustMRRG(a)
	g, err := Benchmark("accum")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Map(ctx, g, m, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible() {
		t.Fatalf("accum on the most flexible architecture: %v", res.Status)
	}
	var sb strings.Builder
	if err := res.Mapping.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "place") {
		t.Error("mapping rendering empty")
	}
}

func TestFacadeBuildersAndParsers(t *testing.T) {
	g := NewDFG("k")
	x := g.In("x")
	g.Out("o", g.Add("s", x, x))
	if g.NumOps() != 3 {
		t.Errorf("NumOps = %d", g.NumOps())
	}
	parsed, err := ParseDFG(strings.NewReader("dfg k\ninput a\noutput o a\n"))
	if err != nil || parsed.NumOps() != 2 {
		t.Errorf("ParseDFG: %v", err)
	}
	if len(BenchmarkNames()) != 19 {
		t.Errorf("BenchmarkNames = %d", len(BenchmarkNames()))
	}
	if len(PaperArchitectures()) != 8 {
		t.Errorf("PaperArchitectures = %d", len(PaperArchitectures()))
	}
	var xml strings.Builder
	a := MustGrid(GridSpec{Rows: 2, Cols: 2, Contexts: 1})
	if err := a.WriteXML(&xml); err != nil {
		t.Fatal(err)
	}
	a2, err := ReadArchXML(strings.NewReader(xml.String()))
	if err != nil || a2.Name != a.Name {
		t.Errorf("XML round trip: %v", err)
	}
	if NewCDCLSolver() == nil {
		t.Error("solver constructor returned nil")
	}
}

func TestAnnealFacade(t *testing.T) {
	a := MustGrid(GridSpec{Rows: 4, Cols: 4, Interconnect: Diagonal, Homogeneous: true, Contexts: 2})
	m := MustMRRG(a)
	g, err := Benchmark("2x2-p")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := AnnealMap(ctx, g, m, AnnealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		if err := res.Mapping.Verify(); err != nil {
			t.Error(err)
		}
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Auto-II search from the facade.
	a := MustGrid(GridSpec{Rows: 4, Cols: 4, Interconnect: Diagonal, Homogeneous: false, Contexts: 1})
	g, err := Benchmark("mult_10")
	if err != nil {
		t.Fatal(err)
	}
	if mii, err := MinII(g, a); err != nil || mii != 2 {
		t.Errorf("MinII = %d, %v; want 2", mii, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	auto, err := MapAuto(ctx, g, a, 3, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !auto.Feasible() || auto.II != 2 {
		t.Errorf("MapAuto: II=%d %v", auto.II, auto.Status)
	}
	// Floor plan of the auto-mapped kernel.
	var sb strings.Builder
	if err := WriteFloorPlan(&sb, auto.Mapping); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "floor plan") {
		t.Error("floor plan empty")
	}
	// Extra kernels + configuration extraction + simulation validation.
	fir, err := ExtraKernel("fir4")
	if err != nil {
		t.Fatal(err)
	}
	if len(ExtraKernelNames()) < 5 {
		t.Error("extra kernel list too short")
	}
	flex := MustMRRG(MustGrid(GridSpec{Rows: 4, Cols: 4, Interconnect: Diagonal, Homogeneous: true, Contexts: 2}))
	res, err := Map(ctx, fir, flex, MapOptions{})
	if err != nil || !res.Feasible() {
		t.Fatalf("fir4: %v", err)
	}
	if _, err := ExtractConfig(res.Mapping); err != nil {
		t.Error(err)
	}
	if err := ValidateMapping(res.Mapping, DefaultInputs(fir, 3), nil); err != nil {
		t.Error(err)
	}
}

// TestWorkloadFacade drives the workload subsystem through the facade:
// generate a seeded DFG, build a kernel ladder rung, parse and build a
// scaled fabric, and chart a tiny frontier whose flip is pinned by the
// 2x2 heterogeneous fabric's two multiplier cells.
func TestWorkloadFacade(t *testing.T) {
	g, err := GenerateDFG(WorkloadSpec{Seed: 5, Ops: 12, Depth: 4, Inputs: 4, Outputs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(KernelFamilies()) < 5 {
		t.Error("kernel family list too short")
	}
	k, err := Kernel(KernelFamily("reduce"), 8, 0)
	if err != nil || k.Stats().IOs != 9 {
		t.Fatalf("reduce_8: %v, %+v", err, k.Stats())
	}
	fs, err := ParseFabric("8x8:diag,mem4")
	if err != nil {
		t.Fatal(err)
	}
	if a, err := Grid(fs); err != nil || a.Validate() != nil {
		t.Fatalf("8x8 fabric: %v", err)
	}
	if len(StandardFabrics()) < 5 {
		t.Error("standard fabric ladder too short")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	hetero, err := ParseFabric("2x2:diag,hetero")
	if err != nil {
		t.Fatal(err)
	}
	front, err := RunFrontier(ctx, FrontierSpec{
		Family: "dot", MinN: 1, MaxN: 4, Fabrics: []GridSpec{hetero},
	}, FrontierOptions{Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	b := front.Boundaries[0]
	if !b.Bracketed() || b.MaxFeasibleN != 2 || b.MinInfeasibleN != 3 {
		t.Fatalf("2x2 hetero dot frontier %+v, want the multiplier pigeonhole at [2, 3]", b)
	}
	var blob strings.Builder
	if err := front.WriteJSON(&blob); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrontierJSON(strings.NewReader(blob.String()))
	if err != nil || len(back.Boundaries) != 1 {
		t.Fatalf("frontier JSON round trip: %v", err)
	}
}
