// Package sched provides classical modulo-scheduling analyses over DFG /
// architecture pairs: ASAP/ALAP levels and mobility, the
// resource-constrained minimum initiation interval (ResMII) and the
// recurrence-constrained minimum II (RecMII).
//
// The MRRG frames modulo scheduling inside the mapping problem (paper
// §3.2-3.3): an architecture operated with N contexts realises II = N, so
// MII = max(ResMII, RecMII) is a sound lower bound on the context count
// any feasible mapping needs. The ILP mapper uses it as an additional
// counting presolve, and architects can use it to pick the context count
// to evaluate (the paper's single- vs dual-context axis).
package sched

import (
	"fmt"
	"math/bits"

	"cgramap/internal/arch"
	"cgramap/internal/dfg"
	"cgramap/internal/mrrg"
)

// Levels holds ASAP/ALAP schedules of an acyclic DFG in unit-latency
// levels.
type Levels struct {
	// ASAP[opID] is the earliest level of the operation (sources at 0).
	ASAP []int
	// ALAP[opID] is the latest level not extending the critical path.
	ALAP []int
	// Depth is the critical path length in levels.
	Depth int
}

// Mobility returns ALAP-ASAP slack of an operation: 0 means
// critical-path.
func (l *Levels) Mobility(opID int) int { return l.ALAP[opID] - l.ASAP[opID] }

// ComputeLevels derives ASAP/ALAP levels. It fails on cyclic graphs
// (loop-carried back-edges have no acyclic levelisation; see RecMII).
func ComputeLevels(g *dfg.Graph) (*Levels, error) {
	if !g.Acyclic() {
		return nil, fmt.Errorf("sched: %s has back-edges; levels undefined", g.Name)
	}
	n := g.NumOps()
	l := &Levels{ASAP: make([]int, n), ALAP: make([]int, n)}

	// ASAP: longest path from sources, memoised DFS.
	memo := make([]int, n)
	for i := range memo {
		memo[i] = -1
	}
	var asap func(op *dfg.Op) int
	asap = func(op *dfg.Op) int {
		if memo[op.ID] >= 0 {
			return memo[op.ID]
		}
		level := 0
		for _, v := range op.In {
			if d := asap(v.Def) + 1; d > level {
				level = d
			}
		}
		memo[op.ID] = level
		return level
	}
	for _, op := range g.Ops() {
		l.ASAP[op.ID] = asap(op)
		if l.ASAP[op.ID] > l.Depth {
			l.Depth = l.ASAP[op.ID]
		}
	}

	// ALAP: longest path to sinks, subtracted from the depth.
	down := make([]int, n)
	for i := range down {
		down[i] = -1
	}
	var tail func(op *dfg.Op) int
	tail = func(op *dfg.Op) int {
		if down[op.ID] >= 0 {
			return down[op.ID]
		}
		level := 0
		if op.Out != nil {
			for _, u := range op.Out.Uses {
				if d := tail(u.Op) + 1; d > level {
					level = d
				}
			}
		}
		down[op.ID] = level
		return level
	}
	for _, op := range g.Ops() {
		l.ALAP[op.ID] = l.Depth - tail(op)
	}
	return l, nil
}

// ResMII computes the resource-constrained minimum initiation interval
// using Hall-type counting bounds: for a set K of operation kinds, the
// ops needing K fit only on functional units supporting some kind of K,
// so II >= ceil(ops(K) / slots(K)). The bound is evaluated for every
// union of the architecture's FU-class kind sets (functional units
// grouped by identical supported-operation sets), which covers both the
// per-kind bounds and aggregates like "19 ALU operations on 16 ALUs".
//
// The classes are read straight from the FU primitives: a single-context
// device model has exactly one functional unit per FU primitive, with
// the primitive's operation set, so no MRRG is needed. An FU primitive
// with II != 1 has no single-context model at all, and the bound is
// unavailable (an error); every other FU offers one slot per cycle. The
// architecture's Contexts field is ignored.
func ResMII(g *dfg.Graph, a *arch.Arch) (int, error) {
	// Group FUs into classes by supported-kind signature (a bit per
	// kind); a class has one slot per FU.
	type class struct {
		kinds uint64
		slots int
	}
	var classes []class
	for _, p := range a.Prims {
		if p.Kind != arch.FU {
			continue
		}
		if p.II != 1 {
			return 0, fmt.Errorf("sched: FU %q has II %d; the bound needs single-cycle units", p.Name, p.II)
		}
		var sig uint64
		for _, k := range p.Ops {
			sig |= kindBit(k)
		}
		i := 0
		for i < len(classes) && classes[i].kinds != sig {
			i++
		}
		if i == len(classes) {
			classes = append(classes, class{kinds: sig})
		}
		classes[i].slots++
	}
	if len(classes) > 16 {
		return 0, fmt.Errorf("sched: %d FU classes exceed the enumeration bound", len(classes))
	}

	var counts [64]int
	var used uint64
	for _, op := range g.Ops() {
		bit := kindBit(op.Kind)
		if bit == 0 {
			return 0, fmt.Errorf("sched: no functional unit supports %s", op.Kind)
		}
		counts[op.Kind]++
		used |= bit
	}
	// Every used kind must be supported somewhere.
	var supported uint64
	for _, c := range classes {
		supported |= c.kinds
	}
	if missing := used &^ supported; missing != 0 {
		return 0, fmt.Errorf("sched: no functional unit supports %s", dfg.Kind(bits.TrailingZeros64(missing)))
	}

	// bound raises mii to ceil(ops/slots) for the operations of the
	// kinds in set and the slots of the classes supporting any of them
	// (never 0 slots for a used kind, checked above).
	mii := 1
	bound := func(set uint64) {
		ops, slots := 0, 0
		for rest := set; rest != 0; rest &= rest - 1 {
			ops += counts[bits.TrailingZeros64(rest)]
		}
		for _, c := range classes {
			if c.kinds&set != 0 {
				slots += c.slots
			}
		}
		if ops > 0 {
			mii = max(mii, (ops+slots-1)/slots)
		}
	}
	// Per-kind singleton bounds (e.g. 15 multiplies on 8 multiplier
	// slots), which unions of whole class kind-sets cannot express.
	for set := used; set != 0; set &= set - 1 {
		bound(set & -set)
	}
	for mask := 1; mask < 1<<len(classes); mask++ {
		var set uint64
		for i, c := range classes {
			if mask&(1<<i) != 0 {
				set |= c.kinds
			}
		}
		bound(set)
	}
	return mii, nil
}

// kindBit is the signature bit of an operation kind; 0 for a kind
// outside the signature's range, which no functional unit can support.
func kindBit(k dfg.Kind) uint64 {
	if k < 0 || k >= 64 {
		return 0
	}
	return 1 << k
}

// RecMII computes the recurrence-constrained minimum II: the maximum over
// dependence cycles of ceil(latency/distance). With the unit-distance
// back-edge model used here (a back-edge carries the value one iteration
// forward), this is the length of the longest elementary dependence
// cycle. Returns 1 for acyclic graphs. Cycle enumeration is exponential
// in general; kernels here have few back-edges, and the search is bounded
// by maxCycleLen.
func RecMII(g *dfg.Graph) int {
	const maxCycleLen = 64
	best := 1
	n := g.NumOps()
	onPath := make([]bool, n)
	var dfs func(start, cur *dfg.Op, depth int)
	dfs = func(start, cur *dfg.Op, depth int) {
		if depth > maxCycleLen {
			return
		}
		if cur.Out == nil {
			return
		}
		for _, u := range cur.Out.Uses {
			next := u.Op
			if next == start {
				if depth > best {
					best = depth
				}
				continue
			}
			// Only explore from the smallest-ID op of a cycle to
			// avoid counting rotations.
			if next.ID < start.ID || onPath[next.ID] {
				continue
			}
			onPath[next.ID] = true
			dfs(start, next, depth+1)
			onPath[next.ID] = false
		}
	}
	for _, op := range g.Ops() {
		dfs(op, op, 1)
	}
	return best
}

// ArchMII returns max(ResMII, RecMII): the smallest context count that
// could possibly map the graph onto the architecture. It is an error
// (the bound is unavailable) when ResMII is.
func ArchMII(g *dfg.Graph, a *arch.Arch) (int, error) {
	res, err := ResMII(g, a)
	if err != nil {
		return 0, err
	}
	return max(res, RecMII(g)), nil
}

// MII is ArchMII for a caller holding a single-context MRRG: the bound
// is read from the graph's architecture.
func MII(g *dfg.Graph, singleCtx *mrrg.Graph) (int, error) {
	if singleCtx.Contexts != 1 {
		return 0, fmt.Errorf("sched: MII wants a single-context MRRG (got %d contexts)", singleCtx.Contexts)
	}
	return ArchMII(g, singleCtx.Arch)
}
