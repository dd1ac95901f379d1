package anneal

import (
	"container/heap"
	"math"
	"sort"

	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
)

// unroutedPenalty is the cost charged per sub-value the router failed to
// connect; it dominates any real route length so the anneal always
// prefers routable configurations.
const unroutedPenalty = 10000

// ripUp removes a value's routes and usage contributions.
func (s *state) ripUp(valID int) {
	if s.routes == nil {
		return
	}
	for _, n := range s.unionNodes(valID) {
		s.usage[n]--
	}
	for k := range s.routes[valID] {
		s.routes[valID][k] = nil
	}
}

// unionNodes returns the union of nodes over a value's sub-routes.
func (s *state) unionNodes(valID int) []int {
	seen := map[int]bool{}
	var out []int
	for _, nodes := range s.routes[valID] {
		for _, n := range nodes {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// rerouteAll rips up and re-routes every value in a deterministic order.
func (s *state) rerouteAll() {
	s.routes = make([][][]int, s.g.NumVals())
	s.usage = make([]int, len(s.mg.Nodes))
	for _, v := range s.g.Vals() {
		s.routes[v.ID] = make([][]int, len(v.Uses))
	}
	for _, v := range s.g.Vals() {
		s.route(v.ID)
	}
}

// route (re)builds the routing tree of one value: one shortest path per
// sub-value from the producer's output node to a compatible operand port
// of the sink's FU, where nodes already used by this value are free
// (tree sharing) and nodes used by other values cost extra (congestion
// negotiation). Terminal ports already claimed by a sibling sub-value of
// the same value are excluded so both operands of x*x land on distinct
// ports.
func (s *state) route(valID int) {
	v := s.g.Vals()[valID]
	src := s.mg.Nodes[s.place[v.Def.ID]].OutNode
	// The value's tree so far, in insertion order (it may repeat a
	// node): a map here would feed Dijkstra its starts in random order
	// and break per-seed reproducibility.
	var inTree []int
	claimedPorts := map[int]bool{}
	for k, u := range v.Uses {
		sinkFU := s.place[u.Op.ID]
		path := s.shortestPath(src, inTree, valID, func(n *mrrg.Node) bool {
			return n.OperandPort >= 0 && n.FUNode == sinkFU &&
				s.mg.CompatibleSink(n, u.Op, u.Operand) && !claimedPorts[n.ID]
		})
		if path == nil {
			s.routes[valID][k] = nil
			continue
		}
		claimedPorts[path[len(path)-1]] = true
		// The sub-route is the new path plus the shared prefix: for
		// verification purposes each sub-route must contain a full
		// source-to-sink path, so include the tree nodes it grafted
		// onto.
		full := append(append([]int(nil), path...), inTree...)
		sort.Ints(full)
		s.routes[valID][k] = dedupe(full)
		inTree = append(inTree, path...)
	}
	for _, n := range s.unionNodes(valID) {
		s.usage[n]++
	}
}

func dedupe(sorted []int) []int {
	out := sorted[:0]
	for i, n := range sorted {
		if i == 0 || n != sorted[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node int
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// shortestPath runs congestion-weighted Dijkstra over routing nodes from
// src (or any node already in this value's tree) to the first node
// satisfying goal. It returns the node path including the start node, or
// nil.
func (s *state) shortestPath(src int, inTree []int, valID int, goal func(*mrrg.Node) bool) []int {
	dist := map[int]float64{}
	prev := map[int]int{}
	var q pq
	push := func(n int, d float64) {
		if old, ok := dist[n]; !ok || d < old {
			dist[n] = d
			heap.Push(&q, pqItem{n, d})
		}
	}
	push(src, 0)
	for _, n := range inTree {
		push(n, 0)
		prev[n] = -1
	}
	prev[src] = -1
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.dist > dist[it.node]+1e-12 {
			continue // stale entry
		}
		node := s.mg.Nodes[it.node]
		if goal(node) {
			return s.walkBack(prev, it.node)
		}
		for _, f := range node.Fanouts {
			fn := s.mg.Nodes[f]
			if fn.Kind != mrrg.RouteRes {
				continue
			}
			c := s.nodeCost(f, valID)
			if old, ok := dist[f]; !ok || it.dist+c < old {
				dist[f] = it.dist + c
				prev[f] = it.node
				heap.Push(&q, pqItem{f, it.dist + c})
			}
		}
	}
	return nil
}

// nodeCost prices a routing node: base cost, inflated when other values
// already use it (present-sharing congestion penalty).
func (s *state) nodeCost(n, valID int) float64 {
	others := s.usage[n]
	cost := float64(s.mg.Nodes[n].Cost)
	if others > 0 {
		if s.penalty >= blockPenalty {
			return math.Inf(1)
		}
		cost += s.penalty * float64(others)
	}
	return cost
}

// blockPenalty marks the final clean-up pass where overuse is forbidden
// outright.
const blockPenalty = 1e7

func (s *state) walkBack(prev map[int]int, end int) []int {
	var path []int
	for n := end; n != -1; n = prev[n] {
		path = append(path, n)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// cost is the annealing energy: route lengths plus congestion and
// failure penalties, plus placement collisions.
func (s *state) cost() float64 {
	total := 0.0
	for n, u := range s.usage {
		c := float64(s.mg.Nodes[n].Cost)
		total += c * float64(u)
		if u > 1 {
			total += unroutedPenalty / 4 * float64(u-1)
		}
	}
	for _, v := range s.g.Vals() {
		for _, nodes := range s.routes[v.ID] {
			if nodes == nil {
				total += unroutedPenalty
			}
		}
	}
	// Placement collisions (two ops on one FU).
	byFU := map[int]int{}
	for _, op := range s.g.Ops() {
		byFU[s.place[op.ID]]++
	}
	for _, n := range byFU {
		if n > 1 {
			total += unroutedPenalty * float64(n-1)
		}
	}
	return total
}

// legalNow reports whether the current state is a fully legal mapping.
func (s *state) legalNow() bool {
	byFU := map[int]bool{}
	for _, op := range s.g.Ops() {
		p := s.place[op.ID]
		if byFU[p] {
			return false
		}
		byFU[p] = true
	}
	for n, u := range s.usage {
		_ = n
		if u > 1 {
			return false
		}
	}
	for _, v := range s.g.Vals() {
		for _, nodes := range s.routes[v.ID] {
			if nodes == nil {
				return false
			}
		}
	}
	return true
}

// toMapping exports the state as a mapper.Mapping.
func (s *state) toMapping() *mapper.Mapping {
	m := &mapper.Mapping{
		DFG:       s.g,
		MRRG:      s.mg,
		Placement: append([]int(nil), s.place...),
		Routes:    make([][][]int, s.g.NumVals()),
	}
	for _, v := range s.g.Vals() {
		m.Routes[v.ID] = make([][]int, len(v.Uses))
		for k, nodes := range s.routes[v.ID] {
			m.Routes[v.ID][k] = append([]int(nil), nodes...)
		}
	}
	return m
}
