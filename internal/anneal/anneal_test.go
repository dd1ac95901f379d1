package anneal

import (
	"context"
	"reflect"
	"testing"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
	"cgramap/internal/mrrg"
)

func gridMRRG(t *testing.T, spec arch.GridSpec) *mrrg.Graph {
	t.Helper()
	a, err := arch.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mrrg.Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAnnealFindsEasyMapping(t *testing.T) {
	mg := gridMRRG(t, arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2})
	g := bench.MustGet("2x2-f")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Map(ctx, g, mg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("2x2-f on the most flexible architecture not found (cost %v after %d moves)", res.Cost, res.Moves)
	}
	// Mapping was verified inside Map; double-check.
	if err := res.Mapping.Verify(); err != nil {
		t.Error(err)
	}
}

func TestAnnealUnsupportedKind(t *testing.T) {
	mg := gridMRRG(t, arch.GridSpec{Rows: 2, Cols: 2, Contexts: 1})
	g := dfg.New("d")
	x := g.In("x")
	op, _ := g.AddOp("d", dfg.Div, x, x)
	g.Out("o", op.Out)
	res, err := Map(context.Background(), g, mg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("div mapped despite no supporting FU")
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	for _, c := range []struct {
		kernel string
		opts   Options
		spec   arch.GridSpec
	}{
		{"accum", Options{Seed: 7}, arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Homogeneous: true, Contexts: 1}},
		// Routing trees here grow over several sinks, so Dijkstra's
		// start order must not depend on map iteration.
		{"mac", Options{Seed: 1, MovesPerTemp: 40}, arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Contexts: 1}},
	} {
		mg := gridMRRG(t, c.spec)
		g := bench.MustGet(c.kernel)
		ctx := context.Background()
		r1, err := Map(ctx, g, mg, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Map(ctx, bench.MustGet(c.kernel), mg, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Feasible != r2.Feasible || r1.Moves != r2.Moves || r1.Cost != r2.Cost ||
			r1.Feasible && !reflect.DeepEqual(r1.Mapping.Placement, r2.Mapping.Placement) {
			t.Errorf("%s: same seed diverged: %+v vs %+v", c.kernel, r1, r2)
		}
	}
}

func TestAnnealRespectsContext(t *testing.T) {
	mg := gridMRRG(t, arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2})
	g := bench.MustGet("weighted_sum")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := Map(ctx, g, mg, Options{}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancelled anneal ran on")
	}
}

// TestAnnealProducesVerifiedMappingOrNothing: across several benchmarks
// and seeds, every feasible result must pass independent verification
// (Map errors out otherwise, so reaching the assertion means it held).
func TestAnnealSweepSmall(t *testing.T) {
	mg := gridMRRG(t, arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2})
	found := 0
	for _, name := range []string{"accum", "2x2-f", "2x2-p", "add_10"} {
		res, err := Map(context.Background(), bench.MustGet(name), mg, Options{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Feasible {
			found++
		}
	}
	if found == 0 {
		t.Error("annealer found no mapping on the easiest architecture")
	}
}
