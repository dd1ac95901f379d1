package workload

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
)

// thresholdMapper fakes a monotone frontier: kernels with at most limit
// internal ops map, larger ones are infeasible. It also counts probes
// so tests can check the bisection does logarithmic work.
func thresholdMapper(limit int, probed *[]string) mapper.MapFunc {
	return func(ctx context.Context, g *dfg.Graph, mg *mrrg.Graph, opts mapper.Options) (*mapper.Result, error) {
		if probed != nil {
			*probed = append(*probed, g.Name)
		}
		if g.Stats().Ops <= limit {
			return &mapper.Result{Status: ilp.Feasible}, nil
		}
		return &mapper.Result{Status: ilp.Infeasible, Reason: "stub threshold"}, nil
	}
}

func stubSpec() FrontierSpec {
	return FrontierSpec{
		Family: Reduce, // rung n has n-1 internal ops
		MinN:   1,
		MaxN:   64,
		Fabrics: []arch.GridSpec{
			{Rows: 2, Cols: 2, Homogeneous: true, Contexts: 1},
		},
	}
}

func TestBisectFindsBoundary(t *testing.T) {
	var probed []string
	// Threshold 11 internal ops: reduce_12 maps, reduce_13 does not.
	front, err := RunFrontier(context.Background(), stubSpec(), FrontierOptions{
		Mapper: mapper.Options{MapWith: thresholdMapper(11, &probed)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Boundaries) != 1 {
		t.Fatalf("got %d boundaries, want 1", len(front.Boundaries))
	}
	b := front.Boundaries[0]
	if !b.Bracketed() {
		t.Fatalf("boundary not bracketed: %+v", b)
	}
	if b.MaxFeasibleN != 12 || b.MinInfeasibleN != 13 {
		t.Errorf("bracket [%d, %d], want [12, 13]", b.MaxFeasibleN, b.MinInfeasibleN)
	}
	if b.II != 1 {
		t.Errorf("II = %d, want the fabric's context count 1", b.II)
	}
	// Bisection over 64 rungs: 2 endpoint probes + at most 6 splits.
	if len(probed) > 8 {
		t.Errorf("bisection made %d probes (%v), want <= 8", len(probed), probed)
	}
	if len(b.Probes) != len(probed) {
		t.Errorf("boundary records %d probes, mapper saw %d", len(b.Probes), len(probed))
	}
}

func TestBisectDegenerateEnds(t *testing.T) {
	// Nothing maps: even MinN is infeasible, one probe suffices.
	front, err := RunFrontier(context.Background(), stubSpec(), FrontierOptions{
		Mapper: mapper.Options{MapWith: thresholdMapper(-1, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := front.Boundaries[0]
	if b.MaxFeasibleN != 0 || b.MinInfeasibleN != 1 || len(b.Probes) != 1 {
		t.Errorf("all-infeasible boundary %+v, want MinInfeasibleN=1 after one probe", b)
	}

	// Everything maps: two probes (both ends) suffice.
	front, err = RunFrontier(context.Background(), stubSpec(), FrontierOptions{
		Mapper: mapper.Options{MapWith: thresholdMapper(1<<20, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	b = front.Boundaries[0]
	if b.MaxFeasibleN != 64 || b.MinInfeasibleN != 0 || len(b.Probes) != 2 {
		t.Errorf("all-feasible boundary %+v, want MaxFeasibleN=64 after two probes", b)
	}
}

func TestFrontierPanicContainment(t *testing.T) {
	panicky := func(ctx context.Context, g *dfg.Graph, mg *mrrg.Graph, opts mapper.Options) (*mapper.Result, error) {
		panic("solver wedged")
	}
	spec := stubSpec()
	front, err := RunFrontier(context.Background(), spec, FrontierOptions{
		Mapper: mapper.Options{MapWith: mapper.MapFunc(panicky)},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := front.Boundaries[0]
	if len(b.Probes) != 1 || b.Probes[0].Status != ilp.Unknown {
		t.Fatalf("panicking probe %+v, want one contained Unknown cell", b.Probes)
	}
	if !strings.Contains(b.Probes[0].Reason, "panicked") {
		t.Errorf("reason %q should mention the panic", b.Probes[0].Reason)
	}
}

func TestFrontierCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunFrontier(ctx, stubSpec(), FrontierOptions{
		Mapper: mapper.Options{MapWith: thresholdMapper(11, nil)},
	})
	if err == nil {
		t.Fatal("cancelled sweep should fail, not fabricate a frontier")
	}
}

func TestFrontierValidation(t *testing.T) {
	for _, spec := range []FrontierSpec{
		{Family: Dot, MinN: 0, MaxN: 4, Fabrics: StandardFabrics()},
		{Family: Dot, MinN: 5, MaxN: 4, Fabrics: StandardFabrics()},
		{Family: Dot, MinN: 1, MaxN: 4},
		{Family: Dot, MinN: 1, MaxN: 4, Fabrics: StandardFabrics(), IIs: []int{0}},
	} {
		if _, err := RunFrontier(context.Background(), spec, FrontierOptions{}); err == nil {
			t.Errorf("%+v: expected an error", spec)
		}
	}
}

// TestFrontierReportDeterministic: a fixed-seed sweep writes
// byte-identical JSON and markdown across runs, and the JSON round
// trips through ReadFrontierJSON.
func TestFrontierReportDeterministic(t *testing.T) {
	spec := stubSpec()
	spec.Family = Gen
	spec.Seed = 42
	spec.MaxN = 24
	spec.IIs = []int{1, 2}
	run := func() (string, string) {
		front, err := RunFrontier(context.Background(), spec, FrontierOptions{
			Mapper: mapper.Options{MapWith: thresholdMapper(9, nil)},
		})
		if err != nil {
			t.Fatal(err)
		}
		var j, m bytes.Buffer
		if err := front.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := front.WriteMarkdown(&m); err != nil {
			t.Fatal(err)
		}
		return j.String(), m.String()
	}
	j1, m1 := run()
	j2, m2 := run()
	if j1 != j2 {
		t.Errorf("JSON reports differ across identical runs:\n%s\n---\n%s", j1, j2)
	}
	if m1 != m2 {
		t.Error("markdown reports differ across identical runs")
	}
	back, err := ReadFrontierJSON(strings.NewReader(j1))
	if err != nil {
		t.Fatal(err)
	}
	var j3 bytes.Buffer
	if err := back.WriteJSON(&j3); err != nil {
		t.Fatal(err)
	}
	if j3.String() != j1 {
		t.Error("JSON report changed across a read/write round trip")
	}
}

// TestMarkdownTimeoutBracket: a rung that timed out is rendered as
// undecided within budget, never as unmappable; a proven rung still is.
func TestMarkdownTimeoutBracket(t *testing.T) {
	front := &Frontier{Family: Dot, Seed: 1, MinN: 1, MaxN: 12, Boundaries: []Boundary{
		{Fabric: "timed-out", II: 1, MaxFeasibleN: 6, MinInfeasibleN: 7, Probes: []Probe{
			{N: 1, Status: ilp.Optimal}, {N: 12, Status: ilp.Infeasible}, {N: 6, Status: ilp.Optimal},
			{N: 9, Status: ilp.Infeasible}, {N: 7, Status: ilp.Unknown}}},
		{Fabric: "proven", II: 2, MaxFeasibleN: 6, MinInfeasibleN: 7, Probes: []Probe{
			{N: 1, Status: ilp.Optimal}, {N: 12, Status: ilp.Infeasible}, {N: 6, Status: ilp.Optimal},
			{N: 9, Status: ilp.Infeasible}, {N: 7, Status: ilp.Infeasible}}},
		{Fabric: "tiny", II: 1, MinInfeasibleN: 1, Probes: []Probe{
			{N: 1, Status: ilp.Unknown, Reason: "deadline"}}},
	}}
	var md bytes.Buffer
	if err := front.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, want := range []string{
		"| timed-out | 1 | 6 | 7 (T) |",
		"**timed-out @ II=1**: frontier between n=6 (feasible) and n=7 (undecided within budget)",
		"| proven | 2 | 6 | 7 |",
		"**proven @ II=2**: frontier between n=6 (feasible) and n=7 (unmappable)",
		"**tiny @ II=1**: undecided within budget at the smallest probed size n=1 (deadline)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "unmappable)") != 1 {
		t.Errorf("a timed-out rung is labelled unmappable:\n%s", out)
	}
}

// TestFrontier8x8Bracket drives the real mapper stack: on a
// homogeneous diagonal 8x8 (32 I/O blocks), the dot ladder must flip
// from feasible to unmappable. dot_1 maps in well under a second;
// dot_17 needs 35 I/O operations and is pigeonhole-infeasible at
// presolve; rungs between are decided by solve or by the probe budget
// (a timeout counts as unmappable, like the paper's T entries).
func TestFrontier8x8Bracket(t *testing.T) {
	if testing.Short() {
		t.Skip("real 8x8 solves in -short mode")
	}
	spec := FrontierSpec{
		Family: Dot,
		MinN:   1,
		MaxN:   17,
		Fabrics: []arch.GridSpec{
			{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1},
		},
	}
	front, err := RunFrontier(context.Background(), spec, FrontierOptions{
		Timeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := front.Boundaries[0]
	if b.Fabric != "homo-diag-c1-8x8" {
		t.Errorf("fabric %q, want homo-diag-c1-8x8", b.Fabric)
	}
	if !b.Bracketed() {
		t.Fatalf("8x8 boundary not bracketed: %+v", b)
	}
	if b.MinInfeasibleN != b.MaxFeasibleN+1 {
		t.Errorf("bracket [%d, %d] not adjacent", b.MaxFeasibleN, b.MinInfeasibleN)
	}
	if b.Probes[0].N != 1 || !b.Probes[0].Feasible() {
		t.Errorf("dot_1 should map on an 8x8: %+v", b.Probes[0])
	}
	// The top rung exceeds the fabric's 32 I/O blocks and must be
	// *proven* infeasible by the counting presolve, not timed out.
	top := b.Probes[1]
	if top.N != 17 || top.Status != ilp.Infeasible || top.Reason == "" {
		t.Errorf("dot_17 should be presolve-infeasible on 32 I/O blocks: %+v", top)
	}
}
