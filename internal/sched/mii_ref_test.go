package sched_test

import (
	"bytes"
	"fmt"
	"testing"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
	"cgramap/internal/mrrg"
	"cgramap/internal/sched"
	"cgramap/internal/workload"
)

// refResMII is the MRRG-walking ResMII that ResMII replaced: it groups
// the FuncUnit nodes of a single-context MRRG into classes by supported
// kinds and bounds every union of class kind sets. It is the reference
// TestArchMIIMatchesMRRGReference pins ArchMII against.
func refResMII(g *dfg.Graph, mg *mrrg.Graph) (int, error) {
	const lcmBase = 27720
	if mg.Contexts != 1 {
		return 0, fmt.Errorf("want a single-context MRRG (got %d contexts)", mg.Contexts)
	}
	type class struct {
		kinds map[dfg.Kind]bool
		slots int
	}
	classes := make(map[string]*class)
	for _, id := range mg.FuncUnits() {
		node := mg.Nodes[id]
		sig := ""
		for _, k := range dfg.Kinds() {
			if node.SupportsOp(k) {
				sig += k.String() + ","
			}
		}
		c := classes[sig]
		if c == nil {
			c = &class{kinds: make(map[dfg.Kind]bool)}
			for _, k := range node.Ops {
				c.kinds[k] = true
			}
			classes[sig] = c
		}
		c.slots += lcmBase / mg.Arch.Prims[node.Prim].II
	}
	classList := make([]*class, 0, len(classes))
	for _, c := range classes {
		classList = append(classList, c)
	}
	if len(classList) > 16 {
		return 0, fmt.Errorf("%d FU classes exceed the enumeration bound", len(classList))
	}
	counts := make(map[dfg.Kind]int)
	for _, op := range g.Ops() {
		counts[op.Kind]++
	}
	for k := range counts {
		supported := false
		for _, c := range classList {
			supported = supported || c.kinds[k]
		}
		if !supported {
			return 0, fmt.Errorf("no functional unit supports %s", k)
		}
	}
	mii := 1
	for k, n := range counts {
		slots := 0
		for _, c := range classList {
			if c.kinds[k] {
				slots += c.slots
			}
		}
		mii = max(mii, (n*lcmBase+slots-1)/slots)
	}
	for mask := 1; mask < 1<<len(classList); mask++ {
		kindSet := make(map[dfg.Kind]bool)
		for i, c := range classList {
			if mask&(1<<i) != 0 {
				for k := range c.kinds {
					kindSet[k] = true
				}
			}
		}
		ops := 0
		for k, n := range counts {
			if kindSet[k] {
				ops += n
			}
		}
		if ops == 0 {
			continue
		}
		slots := 0
		for _, c := range classList {
			for k := range c.kinds {
				if kindSet[k] {
					slots += c.slots
					break
				}
			}
		}
		mii = max(mii, (ops*lcmBase+slots-1)/slots)
	}
	return mii, nil
}

// refMII is the bound as it was computed before: max(refResMII,
// RecMII) on the fabric's single-context MRRG, which is nil when it
// could not be generated (an FU with II > 1). 0 means unavailable.
func refMII(g *dfg.Graph, single *mrrg.Graph) int {
	if single == nil {
		return 0
	}
	res, err := refResMII(g, single)
	if err != nil {
		return 0
	}
	return max(res, sched.RecMII(g))
}

// builderFabrics are the hand-built fabrics of the mapper's pipelined
// and non-pipelined multiplier tests: a latency-1 II-1 multiplier, and
// an II-2 multiplier whose fabric has no single-context model.
func builderFabrics(t *testing.T) []*arch.Arch {
	t.Helper()
	pipe := arch.NewBuilder("pipe", 2)
	src := pipe.FU("src", []dfg.Kind{dfg.Input}, 0, 0, 1)
	mul := pipe.FU("mul", []dfg.Kind{dfg.Mul}, 2, 1, 1)
	sink := pipe.FU("sink", []dfg.Kind{dfg.Output}, 1, 0, 1)
	pipe.Connect(src, mul, 0)
	pipe.Connect(src, mul, 1)
	pipe.Connect(mul, sink, 0)

	ii2 := arch.NewBuilder("ii2", 2)
	src = ii2.FU("src", []dfg.Kind{dfg.Input}, 0, 0, 1)
	mul = ii2.FU("mul", []dfg.Kind{dfg.Mul}, 2, 0, 2)
	sink = ii2.FU("sink", []dfg.Kind{dfg.Output}, 1, 0, 1)
	sink2 := ii2.FU("sink2", []dfg.Kind{dfg.Output}, 1, 0, 1)
	ii2.Connect(src, mul, 0)
	ii2.Connect(src, mul, 1)
	ii2.Connect(mul, sink, 0)
	ii2.Connect(mul, sink2, 0)

	var out []*arch.Arch
	for _, b := range []*arch.Builder{pipe, ii2} {
		a, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// squares are the kernels of those tests, one multiply and two
// chained, plus a pass-through that needs no multiplier: on the II-2
// fabric it is still unbounded, because the whole fabric has no
// single-context model.
func squares() []*dfg.Graph {
	one := dfg.New("one")
	x := one.In("x")
	one.Out("o", one.Mul("m", x, x))
	two := dfg.New("two")
	y := two.In("y")
	two.Out("o", two.Mul("m2", two.Mul("m1", y, y), y))
	pass := dfg.New("pass")
	pass.Out("o", pass.In("z"))
	return []*dfg.Graph{one, two, pass}
}

// TestArchMIIMatchesMRRGReference pins ArchMII, read from the FU
// primitives, to the MRRG-walking reference: the same bound, or the same
// unavailability, on every Table 1 kernel and 312 generated kernels of
// the service workload's family (2 to 13 operations), over the 2x2, 3x3,
// 4x4 and 8x8 grids in every interconnect and multiplier mix, a fabric
// read back from its XML description, and the two hand-built multiplier
// fabrics.
func TestArchMIIMatchesMRRGReference(t *testing.T) {
	kernels := squares()
	for _, name := range bench.Names() {
		kernels = append(kernels, bench.MustGet(name))
	}
	for n := 2; n <= 13; n++ {
		for seed := int64(0); seed < 26; seed++ {
			g, err := workload.Kernel(workload.Gen, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			kernels = append(kernels, g)
		}
	}

	var fabrics []*arch.Arch
	for _, size := range []int{2, 3, 4, 8} {
		for _, ic := range []arch.Interconnect{arch.Orthogonal, arch.Diagonal} {
			for _, homo := range []bool{true, false} {
				a, err := arch.Grid(arch.GridSpec{Rows: size, Cols: size, Interconnect: ic, Homogeneous: homo, Contexts: 1})
				if err != nil {
					t.Fatal(err)
				}
				fabrics = append(fabrics, a)
			}
		}
	}
	spec, err := arch.ParseFabric("5x4:diag,hetero,torus,mem2,c2")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := arch.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	var xml bytes.Buffer
	if err := grid.WriteXML(&xml); err != nil {
		t.Fatal(err)
	}
	fromXML, err := arch.ReadXML(&xml)
	if err != nil {
		t.Fatal(err)
	}
	fabrics = append(fabrics, fromXML)
	fabrics = append(fabrics, builderFabrics(t)...)

	bounded := 0
	for _, a := range fabrics {
		single := *a
		single.Contexts = 1
		mg, err := mrrg.Generate(&single)
		if err != nil {
			mg = nil
		}
		for _, g := range kernels {
			got, err := sched.ArchMII(g, a)
			if err != nil {
				got = 0
			}
			if want := refMII(g, mg); got != want {
				t.Fatalf("%s on %s: ArchMII %d, reference %d (0 = unavailable)", g.Name, a.Name, got, want)
			}
			if got > 1 {
				bounded++
			}
		}
	}
	// The II-2 multiplier leaves its fabric without a bound, where the
	// pipelined one bounds two multiplies at II 2.
	two := squares()[1]
	if mii, err := sched.ArchMII(two, fabrics[len(fabrics)-1]); err == nil {
		t.Errorf("II-2 fabric: ArchMII %d, want unavailable", mii)
	}
	if mii, err := sched.ArchMII(two, fabrics[len(fabrics)-2]); err != nil || mii != 2 {
		t.Errorf("pipelined fabric: ArchMII %d, %v; want 2", mii, err)
	}
	if bounded == 0 {
		t.Fatal("no pair has a bound above 1: the comparison shows nothing")
	}
	t.Logf("%d kernels x %d fabrics agree; %d pairs bounded above 1", len(kernels), len(fabrics), bounded)
}
