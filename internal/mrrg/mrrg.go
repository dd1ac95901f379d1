// Package mrrg implements the Modulo Routing Resource Graph (MRRG)
// abstraction of a CGRA (paper §3.2, after Mei et al., DRESC).
//
// An MRRG is a directed graph with two vertex classes: routing resources
// (RouteRes) and functional-unit execution slots (FuncUnit). The graph
// contains one replica of the device resources per execution context;
// registers produce edges that cross from context i to context
// (i+1) mod N, modelling values that are produced in one context and
// consumed in the next (paper Fig. 1).
package mrrg

import (
	"fmt"
	"strconv"

	"cgramap/internal/arch"
	"cgramap/internal/dfg"
)

// NodeKind classifies MRRG vertices (paper §3.2).
type NodeKind int

const (
	// RouteRes is a routing resource: a wire, bus, multiplexer or
	// register time-slot, including functional-unit operand ports and
	// outputs.
	RouteRes NodeKind = iota + 1
	// FuncUnit is an execution time-slot of a physical functional
	// unit.
	FuncUnit
)

// String returns "route" or "fu".
func (k NodeKind) String() string {
	switch k {
	case RouteRes:
		return "route"
	case FuncUnit:
		return "fu"
	default:
		return fmt.Sprintf("nodekind(%d)", int(k))
	}
}

// Node is one MRRG vertex.
type Node struct {
	// ID is the dense node index within the graph.
	ID int
	// Kind distinguishes routing resources from functional units.
	Kind NodeKind
	// Name is the unique node name, e.g. "c0.pe_1_2.mux_a".
	Name string
	// Context is the execution context (cycle modulo N) of the node.
	Context int
	// Prim indexes the architecture primitive this node was expanded
	// from.
	Prim int
	// Cost is the objective weight of using this routing resource.
	Cost int

	// Ops lists the operations executable on a FuncUnit node.
	Ops []dfg.Kind

	// OperandPort is the operand index carried by a functional-unit
	// input-port node, or -1 for every other node.
	OperandPort int
	// PinPort is, for multiplexer input-pin nodes, the selectable
	// input index of the owning multiplexer; -1 otherwise. Used for
	// configuration extraction.
	PinPort int
	// FUNode is, for operand-port and output nodes, the FuncUnit node
	// they attach to; -1 otherwise.
	FUNode int

	// PortNodes and OutNode are set on FuncUnit nodes: the operand
	// port node per operand index, and the result node.
	PortNodes []int
	OutNode   int

	// Fanouts and Fanins are adjacent node IDs.
	Fanouts []int
	Fanins  []int
}

// SupportsOp reports whether a FuncUnit node can execute operations of
// kind k.
func (n *Node) SupportsOp(k dfg.Kind) bool {
	for _, o := range n.Ops {
		if o == k {
			return true
		}
	}
	return false
}

func (n *Node) String() string { return n.Name }

// Graph is a complete MRRG.
type Graph struct {
	// Arch is the architecture the graph was generated from.
	Arch *arch.Arch
	// Contexts is the number of context replicas (equals Arch.Contexts).
	Contexts int
	// Nodes holds every vertex; Node.ID indexes this slice.
	Nodes []*Node

	byName    map[string]int
	funcUnits []int
}

// NodeByName returns the named node, or nil.
func (g *Graph) NodeByName(name string) *Node {
	if i, ok := g.byName[name]; ok {
		return g.Nodes[i]
	}
	return nil
}

// FuncUnits returns the IDs of all FuncUnit nodes. The slice must not be
// modified.
func (g *Graph) FuncUnits() []int { return g.funcUnits }

// NumRouteRes returns the number of routing-resource nodes.
func (g *Graph) NumRouteRes() int { return len(g.Nodes) - len(g.funcUnits) }

// Stats summarises an MRRG.
type Stats struct {
	Nodes, Edges, FuncUnits, RouteRes int
	// CrossContextEdges counts edges between different context
	// replicas (register traversals).
	CrossContextEdges int
}

// Stats computes summary counts.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: len(g.Nodes), FuncUnits: len(g.funcUnits)}
	s.RouteRes = s.Nodes - s.FuncUnits
	for _, n := range g.Nodes {
		s.Edges += len(n.Fanouts)
		for _, f := range n.Fanouts {
			if g.Nodes[f].Context != n.Context {
				s.CrossContextEdges++
			}
		}
	}
	return s
}

// CacheKey is the content address of a's MRRG: the architecture
// fingerprint and the context count. The fingerprint already covers
// Contexts; the count is appended so the key stays correct even if the
// fingerprint's coverage ever changes. Two *arch.Arch values that
// describe the same fabric share a key, and any semantic edit changes
// it, so a store keyed this way never holds a stale graph.
func CacheKey(a *arch.Arch) string {
	return a.Fingerprint() + "/" + strconv.Itoa(a.Contexts)
}

// ApproxBytes estimates the retained size of the graph: the node
// structs, their adjacency and port slices, names, and the by-name
// index. It is an estimate for cache accounting and metrics, not an
// exact measurement.
func (g *Graph) ApproxBytes() int64 {
	// Node struct: ~11 words of scalars plus 4 slice headers ≈ 184
	// bytes on 64-bit, rounded up for allocator slack.
	const nodeOverhead = 192
	const mapEntryOverhead = 48 // bucket slot + string header
	b := int64(len(g.Nodes)) * (nodeOverhead + mapEntryOverhead)
	for _, n := range g.Nodes {
		b += int64(2 * len(n.Name)) // name bytes, once per struct + once per map key
		b += int64(8 * (len(n.Fanouts) + len(n.Fanins) + len(n.PortNodes)))
		b += int64(len(n.Ops))
	}
	b += int64(8 * len(g.funcUnits))
	return b
}

// Validate checks the structural invariants the ILP formulation relies
// on:
//
//   - fanin/fanout reciprocity and dense IDs;
//   - FuncUnit nodes connect only port nodes (in) and an output routing
//     node (out);
//   - operand-port nodes have the FU as their only fanout;
//   - every directed cycle passes through a multi-fanin routing node, so
//     the Multiplexer Input Exclusivity constraint (paper eq. 9 and
//     Example 2) is sufficient to prevent self-reinforcing routing loops.
func (g *Graph) Validate() error {
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("mrrg: node %q ID %d, want %d", n.Name, n.ID, i)
		}
		if g.byName[n.Name] != i {
			return fmt.Errorf("mrrg: node %q not indexed by name", n.Name)
		}
		if n.Context < 0 || n.Context >= g.Contexts {
			return fmt.Errorf("mrrg: node %q context %d out of range", n.Name, n.Context)
		}
		for _, f := range n.Fanouts {
			if f < 0 || f >= len(g.Nodes) {
				return fmt.Errorf("mrrg: node %q fanout out of range", n.Name)
			}
			if !contains(g.Nodes[f].Fanins, i) {
				return fmt.Errorf("mrrg: edge %q->%q missing reciprocal fanin", n.Name, g.Nodes[f].Name)
			}
		}
		for _, f := range n.Fanins {
			if !contains(g.Nodes[f].Fanouts, i) {
				return fmt.Errorf("mrrg: edge %q<-%q missing reciprocal fanout", n.Name, g.Nodes[f].Name)
			}
		}
		switch n.Kind {
		case FuncUnit:
			if len(n.Ops) == 0 {
				return fmt.Errorf("mrrg: FuncUnit %q supports no ops", n.Name)
			}
			for _, p := range n.Fanins {
				if g.Nodes[p].OperandPort < 0 || g.Nodes[p].FUNode != i {
					return fmt.Errorf("mrrg: FuncUnit %q fanin %q is not its operand port", n.Name, g.Nodes[p].Name)
				}
			}
			if len(n.Fanouts) != 1 || g.Nodes[n.Fanouts[0]].Kind != RouteRes {
				return fmt.Errorf("mrrg: FuncUnit %q must have exactly one routing output", n.Name)
			}
			if n.OutNode != n.Fanouts[0] {
				return fmt.Errorf("mrrg: FuncUnit %q OutNode inconsistent", n.Name)
			}
			for op, p := range n.PortNodes {
				if g.Nodes[p].OperandPort != op || g.Nodes[p].FUNode != i {
					return fmt.Errorf("mrrg: FuncUnit %q port %d inconsistent", n.Name, op)
				}
			}
		case RouteRes:
			if n.OperandPort >= 0 {
				if len(n.Fanouts) != 1 || n.Fanouts[0] != n.FUNode {
					return fmt.Errorf("mrrg: port node %q must feed only its FU", n.Name)
				}
			}
			for _, f := range n.Fanouts {
				fn := g.Nodes[f]
				if fn.Kind == FuncUnit && n.OperandPort < 0 {
					return fmt.Errorf("mrrg: non-port routing node %q feeds FuncUnit %q", n.Name, fn.Name)
				}
			}
		default:
			return fmt.Errorf("mrrg: node %q has invalid kind", n.Name)
		}
	}
	if err := g.checkCyclesGated(); err != nil {
		return err
	}
	return nil
}

// checkCyclesGated verifies that the subgraph obtained by removing all
// multi-fanin routing nodes is acyclic. This is the property that makes
// constraint (9) a complete loop guard.
func (g *Graph) checkCyclesGated() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := make([]int, len(g.Nodes))
	skip := func(n *Node) bool { return n.Kind == RouteRes && len(n.Fanins) > 1 }
	// Iterative DFS to avoid recursion depth issues on large graphs.
	type frame struct{ node, next int }
	for start, n := range g.Nodes {
		if skip(n) || state[start] != white {
			continue
		}
		stack := []frame{{start, 0}}
		state[start] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			node := g.Nodes[f.node]
			if f.next < len(node.Fanouts) {
				next := node.Fanouts[f.next]
				f.next++
				if skip(g.Nodes[next]) {
					continue
				}
				switch state[next] {
				case grey:
					return fmt.Errorf("mrrg: cycle through %q not gated by a multi-fanin node", g.Nodes[next].Name)
				case white:
					state[next] = grey
					stack = append(stack, frame{next, 0})
				}
				continue
			}
			state[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
