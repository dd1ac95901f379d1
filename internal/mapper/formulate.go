package mapper

import (
	"fmt"
	"sort"
	"sync"

	"cgramap/internal/arch"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mrrg"
	"cgramap/internal/sched"
)

// The formulation pipeline is split in two phases:
//
//   - Template (per DFG + architecture): everything independent of the
//     initiation interval — DFG validation, per-operation legal
//     primitive sets, the counting-presolve data, and the
//     modulo-scheduling lower bound MII. Built once, reused across the
//     whole auto-II ladder (and, through an ArtifactCache, across
//     requests).
//   - Stamp (per II): emits the ilp.Model for one context count from
//     the template, working out of pooled scratch buffers so the hot
//     path of an II sweep allocates only the model it produces.
//
// There is exactly one code path: a "scratch" formulation is a freshly
// built template stamped once, so a stamped model is byte-identical to
// a scratch one by construction (the CI equivalence job pins this).

// formulation is the ILP model of one mapping instance, plus the
// node-indexed variable rows needed to decode a solution.
type formulation struct {
	g  *dfg.Graph
	mg *mrrg.Graph

	model *ilp.Model

	// fvar[opID][fuNode] is the placement variable F_{p,q}.
	fvar []varRow
	// r2[valID][routeNode] is the value-level routing variable R_{i,j}.
	r2 []varRow
	// r3[valID][sinkIdx][routeNode] is the sink-level routing variable
	// R_{i,j,k}. Its variables sit on the sub-value's allowed node set.
	r3 [][]varRow

	// infeasible holds a human-readable reason when the instance was
	// proven infeasible during construction (presolve / pruning).
	infeasible string

	// reserved is the capacity the stamp reserved up front from
	// stamper.coldSize, before emitting anything.
	reserved modelSize
}

// noVar marks a node that has no variable in a varRow.
const noVar ilp.Var = -1

// varRow holds one operation's, value's or sub-value's variables indexed
// by MRRG node ID, noVar where the node has none. Walking a row in index
// order visits its variables in node order, so no map order or sort
// ever decides variable numbering or constraint order: seeded runs must
// be reproducible across processes.
type varRow []ilp.Var

// get returns the variable on node i, if there is one.
func (r varRow) get(i int) (ilp.Var, bool) {
	if i < 0 || i >= len(r) || r[i] == noVar {
		return noVar, false
	}
	return r[i], true
}

// modelSize is a variable, constraint and constraint-term count.
type modelSize struct{ vars, cons, terms int }

// kindSlots is the counting-presolve data for one operation kind.
type kindSlots struct {
	kind dfg.Kind
	// ops is the number of operations of this kind in the DFG.
	ops int
	// iis lists the initiation intervals of the FU primitives that
	// support the kind: at context count N each such primitive
	// contributes N/ii execution slots.
	iis []int
}

// Template is the II-independent half of the ILP formulation for one
// (DFG, architecture) pair. It is immutable after construction and safe
// for concurrent stamping: speculative II lanes and concurrent jobs
// may call Stamp simultaneously, each drawing its own scratch from the
// pool.
type Template struct {
	g *dfg.Graph

	objective       ObjectiveMode
	disablePruning  bool
	disablePresolve bool

	// infeasible records an II-independent infeasibility: an operation
	// kind no functional unit supports. Every stamp at any II returns
	// it unchanged.
	infeasible string

	// legalPrim[opID][prim] reports whether the architecture primitive
	// may host the operation (constraint 3 data, lifted from MRRG nodes
	// to primitives — every context replica of a primitive has the same
	// operation set). Rows are shared between operations of one kind.
	legalPrim [][]bool

	// kinds carries the counting-presolve data, sorted by kind so
	// infeasibility messages are deterministic.
	kinds []kindSlots
	// fuIIs lists the initiation intervals of all FU primitives: at
	// context count N the device has Σ N/ii functional-unit slots.
	fuIIs []int

	// mii is the modulo-scheduling lower bound max(ResMII, RecMII)
	// computed once from the FU primitives; 0 when the bound is
	// unavailable (an FU with II > 1).
	mii int

	// symmetry enables symmetry-breaking constraint emission; syms,
	// anchorOp and valueSwaps carry the II-independent analysis
	// (symmetry.go). syms may be nil or trivial when the fabric has no
	// verified automorphisms — value swaps are emitted regardless.
	symmetry   bool
	syms       *arch.Symmetries
	anchorOp   int
	valueSwaps [][2]int

	// approxBytes estimates the retained size for artifact-cache
	// capacity accounting.
	approxBytes int64

	scratch sync.Pool // *stamper
}

// NewTemplate performs the II-independent analysis for mapping g onto
// the architecture. The architecture's Contexts field is irrelevant:
// one template serves every II.
func NewTemplate(g *dfg.Graph, a *arch.Arch, opts Options) (*Template, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("mapper: invalid DFG: %w", err)
	}
	t := &Template{
		g:               g,
		objective:       opts.Objective,
		disablePruning:  opts.DisablePruning,
		disablePresolve: opts.DisablePresolve,
	}

	// Per-kind legal primitive sets and presolve data.
	kindMask := make(map[dfg.Kind][]bool)
	kindIIs := make(map[dfg.Kind][]int)
	opsOf := make(map[dfg.Kind]int)
	for _, p := range a.Prims {
		if len(p.Ops) == 0 {
			continue // routing primitive
		}
		t.fuIIs = append(t.fuIIs, p.II)
	}
	t.legalPrim = make([][]bool, g.NumOps())
	for _, op := range g.Ops() {
		opsOf[op.Kind]++
		mask, ok := kindMask[op.Kind]
		if !ok {
			mask = make([]bool, len(a.Prims))
			any := false
			for i, p := range a.Prims {
				if p.SupportsOp(op.Kind) {
					mask[i] = true
					kindIIs[op.Kind] = append(kindIIs[op.Kind], p.II)
					any = true
				}
			}
			if !any {
				mask = nil
			}
			kindMask[op.Kind] = mask
		}
		if mask == nil && t.infeasible == "" {
			t.infeasible = fmt.Sprintf("no functional unit supports operation %s (%s)", op.Name, op.Kind)
		}
		t.legalPrim[op.ID] = mask
	}
	if t.infeasible != "" {
		return t, nil
	}
	for k, n := range opsOf {
		t.kinds = append(t.kinds, kindSlots{kind: k, ops: n, iis: kindIIs[k]})
	}
	sort.Slice(t.kinds, func(i, j int) bool { return t.kinds[i].kind < t.kinds[j].kind })

	// Retained-size estimate for artifact-cache accounting: one shared
	// legality row per distinct kind, a row header per operation, and
	// the presolve tables.
	t.approxBytes = int64(len(kindMask))*int64(len(a.Prims)) +
		int64(g.NumOps())*24 + int64(len(t.fuIIs))*8 + int64(len(t.kinds))*40 + 256

	if opts.Symmetry == SymmetryOn {
		t.initSymmetry(a)
	}
	if !opts.DisablePresolve {
		if mii, err := sched.ArchMII(g, a); err == nil {
			t.mii = mii
		}
	}
	return t, nil
}

// BuildModel stamps the ILP model for one context count. It returns the
// model (nil when the stamp already proved infeasibility, together with
// the reason).
func (t *Template) BuildModel(mg *mrrg.Graph) (*ilp.Model, string, error) {
	f, err := t.stamp(mg)
	if err != nil {
		return nil, "", err
	}
	if f.infeasible != "" {
		return nil, f.infeasible, nil
	}
	return f.model, "", nil
}

// stamper holds the per-stamp state and the reusable scratch buffers.
// One stamper serves one Stamp call at a time; the template's pool
// recycles them across calls (and across concurrent lanes).
type stamper struct {
	t  *Template
	mg *mrrg.Graph
	f  *formulation

	// legal[opID] lists the FuncUnit node IDs the operation may be
	// placed on, carved from legalArena (constraint 3 by variable
	// omission: illegal F variables are never created).
	legal [][]int

	// terms is the constraint-builder scratch buffer: ilp.Model.Add
	// copies its input, so one buffer serves every constraint without
	// per-constraint slice allocations.
	terms []ilp.Term
	// parts is the scratch from which createVars fills the model's
	// name-part table: the prefixes "F", "R" and "SE" (at partF, partR
	// and partSE), then the MRRG node names (node i at nodeParts+i),
	// the operation names and the value names, each list in ID order.
	parts                                              []string
	partF, partR, partSE, nodeParts, opParts, valParts int32

	queue    []int
	fwd, bwd []bool
	// counts and union are coldSize's per-node scratch.
	counts     []int
	union      []bool
	legalArena []int
	// boolArena backs the per-sub-value allowed route sets; boolUsed
	// tracks the high-water mark that must be re-zeroed before reuse.
	boolArena []bool
	boolUsed  int
}

// stamp emits the formulation for one context count. On success, either
// f.infeasible is non-empty or f.model is ready to solve.
func (t *Template) stamp(mg *mrrg.Graph) (*formulation, error) {
	f := &formulation{g: t.g, mg: mg}
	if t.infeasible != "" {
		f.infeasible = t.infeasible
		return f, nil
	}
	s, _ := t.scratch.Get().(*stamper)
	if s == nil {
		s = &stamper{}
	}
	s.t, s.mg, s.f = t, mg, f
	err := s.run()
	// Release the scratch for the next stamp; the formulation keeps
	// only the model and the decode rows, never arena-backed slices.
	s.t, s.mg, s.f = nil, nil, nil
	t.scratch.Put(s)
	return f, err
}

func (s *stamper) run() error {
	t, f := s.t, s.f
	f.model = ilp.NewModel(fmt.Sprintf("map-%s-onto-%s", t.g.Name, s.mg.Arch.Name))

	s.computeLegal()
	if !t.disablePresolve {
		if s.pigeonhole(); f.infeasible != "" {
			return nil
		}
		if t.mii > s.mg.Contexts {
			f.infeasible = fmt.Sprintf("minimum initiation interval %d exceeds the %d available contexts", t.mii, s.mg.Contexts)
			return nil
		}
	}

	allowed := s.computeAllowed()
	if f.infeasible != "" {
		return nil
	}
	if !t.disablePruning {
		if s.refineLegal(allowed); f.infeasible != "" {
			return nil
		}
	}

	f.reserved = s.coldSize(allowed)
	if err := f.model.Reserve(f.reserved.vars, f.reserved.cons, f.reserved.terms); err != nil {
		return err
	}
	s.createVars(allowed)
	s.addPlacementConstraints()
	s.addRoutingConstraints()
	if t.symmetry {
		s.addSymmetryConstraints()
	}
	if t.objective == MinimizeRouting {
		for _, row := range f.r2 {
			for i, rv := range row {
				if rv != noVar {
					f.model.Minimize(rv, s.mg.Nodes[i].Cost)
				}
			}
		}
	}
	return f.model.Validate()
}

// boolSlice carves a zeroed n-bool slice from the arena.
func (s *stamper) boolSlice(n int) []bool {
	if len(s.boolArena)-s.boolUsed < n {
		grown := make([]bool, 2*len(s.boolArena)+n)
		s.boolArena = grown // old segments stay alive with their owners
		s.boolUsed = 0
	}
	out := s.boolArena[s.boolUsed : s.boolUsed+n : s.boolUsed+n]
	s.boolUsed += n
	clear(out)
	return out
}

// computeLegal expands the template's per-primitive legality into
// legal[q]: every FuncUnit node supporting the operation, in MRRG node
// order (identical to testing every node, because all context replicas
// of one primitive share an operation set). An operation kind with no
// supporting primitive was already caught at template construction, so
// every list here is non-empty.
func (s *stamper) computeLegal() {
	t, mg := s.t, s.mg
	fus := mg.FuncUnits()
	total := 0
	for _, op := range t.g.Ops() {
		mask := t.legalPrim[op.ID]
		for _, p := range fus {
			if mask[mg.Nodes[p].Prim] {
				total++
			}
		}
	}
	if cap(s.legalArena) < total {
		s.legalArena = make([]int, 0, total)
	}
	arena := s.legalArena[:0]
	if cap(s.legal) < t.g.NumOps() {
		s.legal = make([][]int, t.g.NumOps())
	}
	s.legal = s.legal[:t.g.NumOps()]
	for _, op := range t.g.Ops() {
		mask := t.legalPrim[op.ID]
		start := len(arena)
		for _, p := range fus {
			if mask[mg.Nodes[p].Prim] {
				arena = append(arena, p)
			}
		}
		s.legal[op.ID] = arena[start:len(arena):len(arena)]
	}
	s.legalArena = arena[:0]
}

// pigeonhole applies the counting presolve: more operations of a kind
// than FuncUnit slots supporting that kind is infeasible outright, as
// is more operations than slots overall. Each primitive with initiation
// interval ii contributes N/ii slots at context count N (ii divides N,
// or the MRRG would not have been generated).
func (s *stamper) pigeonhole() {
	n := s.mg.Contexts
	for _, ks := range s.t.kinds {
		slots := 0
		for _, ii := range ks.iis {
			slots += n / ii
		}
		if ks.ops > slots {
			s.f.infeasible = fmt.Sprintf("%d operations of kind %s but only %d supporting slots", ks.ops, ks.kind, slots)
			return
		}
	}
	total := 0
	for _, ii := range s.t.fuIIs {
		total += n / ii
	}
	if s.t.g.NumOps() > total {
		s.f.infeasible = fmt.Sprintf("%d operations but only %d functional-unit slots",
			s.t.g.NumOps(), total)
	}
}

// forEachRouteFanout enumerates RouteRes neighbours.
func (s *stamper) forEachRouteFanout(i int, fn func(int)) {
	for _, m := range s.mg.Nodes[i].Fanouts {
		if s.mg.Nodes[m].Kind == mrrg.RouteRes {
			fn(m)
		}
	}
}

// computeAllowed returns, per sub-value, the set of routing nodes that
// lie on some source-to-sink path (forward reachability from every legal
// producer output intersected with backward reachability from every
// compatible sink port). With pruning disabled, every routing node is
// allowed for every sub-value.
func (s *stamper) computeAllowed() [][][]bool {
	g, mg := s.t.g, s.mg
	nNodes := len(mg.Nodes)
	s.boolUsed = 0
	allowed := make([][][]bool, g.NumVals())

	if s.t.disablePruning {
		// Every sub-value shares one read-only mask of all routing
		// nodes.
		all := s.boolSlice(nNodes)
		for i, n := range mg.Nodes {
			all[i] = n.Kind == mrrg.RouteRes
		}
		for _, v := range g.Vals() {
			allowed[v.ID] = make([][]bool, len(v.Uses))
			for k := range v.Uses {
				allowed[v.ID][k] = all
			}
		}
		return allowed
	}

	if cap(s.fwd) < nNodes {
		s.fwd = make([]bool, nNodes)
		s.bwd = make([]bool, nNodes)
	}
	fwd, bwd := s.fwd[:nNodes], s.bwd[:nNodes]
	for _, v := range g.Vals() {
		// Forward reachability from every legal producer output.
		clear(fwd)
		queue := s.queue[:0]
		for _, p := range s.legal[v.Def.ID] {
			out := mg.Nodes[p].OutNode
			if !fwd[out] {
				fwd[out] = true
				queue = append(queue, out)
			}
		}
		// Both searches walk the queue by index, so it keeps its
		// capacity from value to value and stamp to stamp.
		for head := 0; head < len(queue); head++ {
			s.forEachRouteFanout(queue[head], func(m int) {
				if !fwd[m] {
					fwd[m] = true
					queue = append(queue, m)
				}
			})
		}
		allowed[v.ID] = make([][]bool, len(v.Uses))
		for k, u := range v.Uses {
			// Backward reachability from compatible sink ports: the
			// operand ports of the FUs supporting the consumer
			// (legal, before refineLegal narrows it), every port for
			// a commutative binary operation (mrrg.CompatibleSink).
			clear(bwd)
			queue = queue[:0]
			anyPort := u.Op.Kind.Commutative() && len(u.Op.In) == 2
			for _, fu := range s.legal[u.Op.ID] {
				for port, pn := range mg.Nodes[fu].PortNodes {
					if anyPort || port == u.Operand {
						bwd[pn] = true
						queue = append(queue, pn)
					}
				}
			}
			for head := 0; head < len(queue); head++ {
				for _, m := range mg.Nodes[queue[head]].Fanins {
					if mg.Nodes[m].Kind == mrrg.RouteRes && !bwd[m] {
						bwd[m] = true
						queue = append(queue, m)
					}
				}
			}
			set := s.boolSlice(nNodes)
			any := false
			for i := range set {
				set[i] = fwd[i] && bwd[i]
				any = any || set[i]
			}
			if !any {
				s.f.infeasible = fmt.Sprintf("value %s cannot reach %s.op%d on this architecture",
					v.Name, u.Op.Name, u.Operand)
				s.queue = queue[:0]
				return nil
			}
			allowed[v.ID][k] = set
		}
		s.queue = queue[:0]
	}
	return allowed
}

// refineLegal drops placements whose output cannot reach every sink and
// whose operand ports cannot be reached by the corresponding producers
// (sound because the allowed sets were computed from a superset of the
// refined placements).
func (s *stamper) refineLegal(allowed [][][]bool) {
	mg := s.mg
	for _, op := range s.t.g.Ops() {
		kept := s.legal[op.ID][:0]
	placements:
		for _, p := range s.legal[op.ID] {
			fu := mg.Nodes[p]
			if op.Out != nil {
				out := fu.OutNode
				for k := range op.Out.Uses {
					if !allowed[op.Out.ID][k][out] {
						continue placements
					}
				}
			}
			for si, v := range op.In {
				k := useIndex(v, op, si)
				ok := false
				for _, pn := range fu.PortNodes {
					if mg.CompatibleSink(mg.Nodes[pn], op, si) && allowed[v.ID][k][pn] {
						ok = true
						break
					}
				}
				if !ok {
					continue placements
				}
			}
			kept = append(kept, p)
		}
		s.legal[op.ID] = kept
		if len(kept) == 0 {
			s.f.infeasible = fmt.Sprintf("no reachable placement for operation %s (%s)", op.Name, op.Kind)
			return
		}
	}
}

// coldSize sizes the model about to be emitted from the legal
// placements and allowed route sets alone, so every stamp fills its
// backing arrays without regrowing them. The F and R variable counts
// are exact; constraints and terms are bounded from above by mirroring
// the emission loops below. Only an FU fanout's term in (5) and the
// symmetry chains, SE variables included, are counted at their maximum.
func (s *stamper) coldSize(allowed [][][]bool) modelSize {
	g, mg := s.t.g, s.mg
	n := len(mg.Nodes)
	if cap(s.counts) < n {
		s.counts = make([]int, n)
		s.union = make([]bool, n)
	}
	// cnt[p] counts the operations legal on FU node p and cnt[i] the
	// values routable through routing node i; the two node sets are
	// disjoint, so one array serves (2) and (4).
	cnt, union := s.counts[:n], s.union[:n]
	clear(cnt)
	var z modelSize
	// F variables and (1) placement.
	for _, op := range g.Ops() {
		z.vars += len(s.legal[op.ID])
		for _, p := range s.legal[op.ID] {
			cnt[p]++
		}
	}
	fvars := z.vars
	z.cons += g.NumOps()
	z.terms += fvars
	for _, v := range g.Vals() {
		clear(union)
		for k := range v.Uses {
			set := allowed[v.ID][k]
			for i, ok := range set {
				if !ok {
					continue
				}
				union[i] = true
				node := mg.Nodes[i]
				// R_{i,j,k}, (5) fanout routing and (8) resource
				// usage; (6) on operand ports.
				z.vars++
				z.cons += 2
				z.terms += 3
				for _, m := range node.Fanouts {
					if mg.Nodes[m].Kind != mrrg.RouteRes || set[m] {
						z.terms++
					}
				}
				if node.OperandPort >= 0 {
					z.cons++
					z.terms += 2
				}
			}
		}
		// (7) initial fanout.
		for _, p := range s.legal[v.Def.ID] {
			out := mg.Nodes[p].OutNode
			for k := range v.Uses {
				z.cons++
				z.terms++
				if allowed[v.ID][k][out] {
					z.terms++
				}
			}
		}
		// Distinct operand ports.
		for _, op := range g.Ops() {
			if len(op.In) != 2 || op.In[0] != op.In[1] || op.In[0] != v {
				continue
			}
			a0, a1 := allowed[v.ID][useIndex(v, op, 0)], allowed[v.ID][useIndex(v, op, 1)]
			for i, ok := range a0 {
				if ok && a1[i] && mg.Nodes[i].OperandPort >= 0 {
					z.cons++
					z.terms += 2
				}
			}
		}
		// R_{i,j} and (9) multiplexer input exclusivity.
		for i, ok := range union {
			if !ok {
				continue
			}
			z.vars++
			cnt[i]++
			if fanins := mg.Nodes[i].Fanins; len(fanins) > 1 {
				z.cons++
				z.terms++
				for _, m := range fanins {
					if union[m] {
						z.terms++
					}
				}
			}
		}
	}
	// (2) and (4): one exclusivity constraint per shared node.
	for _, c := range cnt {
		if c > 1 {
			z.cons++
			z.terms += c
		}
	}
	if s.t.symmetry {
		// A lex chain's positions are distinct F variables, at most
		// maxLexPositions of them. It has a two-term head and per
		// further link one SE variable and at most six clauses of 19
		// terms; orbit fixing is one constraint over the anchor.
		chains := len(s.t.valueSwaps)
		if s.t.syms != nil && !s.t.syms.Trivial() {
			chains += len(s.t.syms.Gens)
			z.cons++
			z.terms += len(s.legal[s.t.anchorOp])
		}
		links := min(maxLexPositions, fvars) - 1
		z.vars += chains * links
		z.cons += chains * (1 + 6*links)
		z.terms += chains * (2 + 19*links)
	}
	return z
}

// createVars numbers the variables: every operation's F variables in
// node order, then per value its R_{i,j,k} sub-value by sub-value and
// its R_{i,j} in node order. The rows are carved from one slab per
// formulation. Variables are named by indices into a name-part table
// filled once here, so no name string is stored per variable.
func (s *stamper) createVars(allowed [][][]bool) {
	f, g, mg := s.f, s.t.g, s.mg
	n := len(mg.Nodes)
	s.parts = append(s.parts[:0], "F", "R", "SE")
	for i := range mg.Nodes {
		s.parts = append(s.parts, mg.Nodes[i].Name)
	}
	for _, op := range g.Ops() {
		s.parts = append(s.parts, op.Name)
	}
	for _, v := range g.Vals() {
		s.parts = append(s.parts, v.Name)
	}
	s.partF = f.model.NameParts(s.parts...)
	s.partR, s.partSE, s.nodeParts = s.partF+1, s.partF+2, s.partF+3
	s.opParts = s.nodeParts + int32(n)
	s.valParts = s.opParts + int32(g.NumOps())
	clear(s.parts) // the pooled scratch must not pin this graph's names
	uses := 0
	for _, v := range g.Vals() {
		uses += len(v.Uses)
	}
	slab := make([]ilp.Var, (g.NumOps()+g.NumVals()+uses)*n)
	for i := range slab {
		slab[i] = noVar
	}
	row := func() varRow {
		r := varRow(slab[:n:n])
		slab = slab[n:]
		return r
	}
	f.fvar = make([]varRow, g.NumOps())
	for _, op := range g.Ops() {
		f.fvar[op.ID] = row()
		for _, p := range s.legal[op.ID] {
			v := f.model.BinaryParts(s.partF, s.nodeParts+int32(p), s.opParts+int32(op.ID), -1)
			// Placement decisions dominate the search: branch on
			// them first, trying "placed here" before "not here"
			// so that each decision constructively extends a
			// partial placement instead of enumerating
			// exclusions.
			f.model.SetBranchPriority(v, 1)
			f.model.SetPhaseHint(v, true)
			f.fvar[op.ID][p] = v
		}
	}
	f.r3 = make([][]varRow, g.NumVals())
	f.r2 = make([]varRow, g.NumVals())
	subRows := make([]varRow, uses)
	for _, v := range g.Vals() {
		f.r3[v.ID], subRows = subRows[:len(v.Uses):len(v.Uses)], subRows[len(v.Uses):]
		r2 := row()
		for k := range v.Uses {
			rk := row()
			for i, ok := range allowed[v.ID][k] {
				if ok {
					rk[i] = f.model.BinaryParts(s.partR, s.nodeParts+int32(i), s.valParts+int32(v.ID), k)
					r2[i] = 0 // marks the union; numbered below
				}
			}
			f.r3[v.ID][k] = rk
		}
		for i, rv := range r2 {
			if rv != noVar {
				r2[i] = f.model.BinaryParts(s.partR, s.nodeParts+int32(i), s.valParts+int32(v.ID), -1)
			}
		}
		f.r2[v.ID] = r2
	}
}

// addPlacementConstraints emits constraints (1) and (2).
func (s *stamper) addPlacementConstraints() {
	f, g := s.f, s.t.g
	// (1) Operation Placement: every op on exactly one FU.
	for _, op := range g.Ops() {
		s.terms = s.terms[:0]
		for _, p := range s.legal[op.ID] {
			s.terms = append(s.terms, ilp.Term{Var: f.fvar[op.ID][p], Coef: 1})
		}
		f.model.AddEQ("placement", s.terms, 1)
	}
	// (2) Functional Unit Exclusivity: at most one op per FU slot,
	// summed in op order.
	for _, p := range s.mg.FuncUnits() {
		s.terms = s.terms[:0]
		for _, row := range f.fvar {
			if fv, ok := row.get(p); ok {
				s.terms = append(s.terms, ilp.Term{Var: fv, Coef: 1})
			}
		}
		if len(s.terms) > 1 {
			f.model.AddLE("fu-exclusivity", s.terms, 1)
		}
	}
}

// addRoutingConstraints emits constraints (4) through (9).
func (s *stamper) addRoutingConstraints() {
	f, g, mg := s.f, s.t.g, s.mg
	// (4) Route Exclusivity: at most one value per routing node,
	// summed in value order.
	for i := range mg.Nodes {
		s.terms = s.terms[:0]
		for _, row := range f.r2 {
			if rv, ok := row.get(i); ok {
				s.terms = append(s.terms, ilp.Term{Var: rv, Coef: 1})
			}
		}
		if len(s.terms) > 1 {
			f.model.AddLE("route-exclusivity", s.terms, 1)
		}
	}

	for _, v := range g.Vals() {
		for k, u := range v.Uses {
			rk := f.r3[v.ID][k]
			for i, rv := range rk {
				if rv == noVar {
					continue
				}
				node := mg.Nodes[i]
				// (5) Fanout Routing: a used node drives a
				// downstream node with the same sub-value or
				// terminates at the sink's FU.
				s.terms = append(s.terms[:0], ilp.Term{Var: rv, Coef: -1})
				for _, m := range node.Fanouts {
					mn := mg.Nodes[m]
					if mn.Kind == mrrg.RouteRes {
						if mv, ok := rk.get(m); ok {
							s.terms = append(s.terms, ilp.Term{Var: mv, Coef: 1})
						}
						continue
					}
					// FU fanout: i is an operand port of mn.
					if mg.CompatibleSink(node, u.Op, u.Operand) {
						if fv, ok := f.fvar[u.Op.ID].get(m); ok {
							s.terms = append(s.terms, ilp.Term{Var: fv, Coef: 1})
						}
					}
				}
				f.model.AddGE("fanout-routing", s.terms, 0)

				// (6) Implied Placement (and operand
				// correctness): routing onto an operand port
				// forces the sink op onto that FU; an
				// incompatible port cannot carry the
				// sub-value at all.
				if node.OperandPort >= 0 {
					p := node.FUNode
					if mg.CompatibleSink(node, u.Op, u.Operand) {
						if fv, ok := f.fvar[u.Op.ID].get(p); ok {
							f.model.AddGE("implied-placement",
								[]ilp.Term{{Var: fv, Coef: 1}, {Var: rv, Coef: -1}}, 0)
						} else {
							f.model.AddLE("implied-placement", []ilp.Term{{Var: rv, Coef: 1}}, 0)
						}
					} else {
						f.model.AddLE("operand-correctness", []ilp.Term{{Var: rv, Coef: 1}}, 0)
					}
				}

				// (8) Routing Resource Usage.
				f.model.AddGE("resource-usage",
					[]ilp.Term{{Var: f.r2[v.ID][i], Coef: 1}, {Var: rv, Coef: -1}}, 0)
			}
		}

		// (7) Initial Fanout: the producer's output node carries
		// every sub-value of the produced value iff the producer is
		// placed there.
		def := v.Def
		for _, p := range s.legal[def.ID] {
			out := mg.Nodes[p].OutNode
			fv := f.fvar[def.ID][p]
			for k := range v.Uses {
				if rv, ok := f.r3[v.ID][k].get(out); ok {
					f.model.AddEQ("initial-fanout",
						[]ilp.Term{{Var: rv, Coef: 1}, {Var: fv, Coef: -1}}, 0)
				} else {
					// The output cannot reach this sink:
					// the placement is impossible (only
					// reachable with pruning disabled, or
					// kept deliberately when refinement is
					// off).
					f.model.AddLE("initial-fanout", []ilp.Term{{Var: fv, Coef: 1}}, 0)
				}
			}
		}

		// Distinct operand ports: when one value feeds both operands
		// of a commutative operation (e.g. x*x), its two sub-values
		// must terminate on different ports — route exclusivity
		// (4) enforces this only across *different* values, and
		// constraint (6) alone would let both sub-values share one
		// port, leaving the other ALU input undriven.
		for _, op := range g.Ops() {
			if len(op.In) != 2 || op.In[0] != op.In[1] || op.In[0] != v {
				continue
			}
			r1 := f.r3[v.ID][useIndex(v, op, 1)]
			for i, rv0 := range f.r3[v.ID][useIndex(v, op, 0)] {
				if rv0 == noVar || mg.Nodes[i].OperandPort < 0 {
					continue
				}
				if rv1, ok := r1.get(i); ok {
					f.model.AddLE("distinct-ports",
						[]ilp.Term{{Var: rv0, Coef: 1}, {Var: rv1, Coef: 1}}, 1)
				}
			}
		}

		// (9) Multiplexer Input Exclusivity: on multi-fanin routing
		// nodes the value enters through exactly as many inputs as
		// the node is used — preventing self-reinforcing loops
		// (paper Example 2) and forcing per-value route trees.
		r2 := f.r2[v.ID]
		for i, rv := range r2 {
			if rv == noVar || len(mg.Nodes[i].Fanins) <= 1 {
				continue
			}
			s.terms = append(s.terms[:0], ilp.Term{Var: rv, Coef: -1})
			for _, m := range mg.Nodes[i].Fanins {
				if mv, ok := r2.get(m); ok {
					s.terms = append(s.terms, ilp.Term{Var: mv, Coef: 1})
				}
			}
			f.model.AddEQ("mux-input-exclusivity", s.terms, 0)
		}
	}
}
