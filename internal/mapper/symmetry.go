package mapper

import (
	"fmt"
	"strconv"

	"cgramap/internal/arch"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
)

// SymmetryMode selects whether symmetry-breaking constraints are added
// to the formulation.
type SymmetryMode int

const (
	// SymmetryAuto (the zero value) enables symmetry breaking where it
	// pays: MapAuto sweeps — which spend most of their time *proving*
	// rungs infeasible, exactly where pruning symmetric subtrees wins —
	// turn it on; direct Map/BuildModel calls leave it off. Callers
	// that know better say so explicitly.
	SymmetryAuto SymmetryMode = iota
	// SymmetryOn always emits the constraints.
	SymmetryOn
	// SymmetryOff never does.
	SymmetryOff
)

// String returns "auto", "on" or "off".
func (m SymmetryMode) String() string {
	switch m {
	case SymmetryOn:
		return "on"
	case SymmetryOff:
		return "off"
	default:
		return "auto"
	}
}

// ParseSymmetryMode resolves a -symmetry flag value.
func ParseSymmetryMode(s string) (SymmetryMode, error) {
	switch s {
	case "", "auto":
		return SymmetryAuto, nil
	case "on", "true", "1":
		return SymmetryOn, nil
	case "off", "false", "0":
		return SymmetryOff, nil
	}
	return SymmetryAuto, fmt.Errorf("mapper: unknown symmetry mode %q (want auto, on or off)", s)
}

// maxLexPositions caps each lexicographic chain. Lex-leader constraints
// prune from the front of the chain — the first few positions decide
// almost all of the ordering — while every position costs aux variables
// and clauses on instances that may never branch there. Truncating a
// lex prefix is sound (the full constraint implies every prefix), so
// the cap trades a sliver of pruning for bounded overhead.
const maxLexPositions = 64

// findValueSwaps detects interchangeable operand producers: two
// distinct leaf operations of the same kind whose single uses feed the
// two operands of one commutative operation. Swapping their placements
// (and, implicitly, their routes) maps any valid mapping to another —
// the classic value symmetry of a*b = b*a with independent inputs. The
// anchor operation is excluded: its placement is already pinned to
// orbit representatives by the fabric-symmetry constraints, and keeping
// the two families on disjoint operations makes their joint soundness
// immediate. Each operation joins at most one pair (single use), so
// the pairs are disjoint by construction.
func findValueSwaps(g *dfg.Graph, anchor int) [][2]int {
	var pairs [][2]int
	for _, op := range g.Ops() {
		if !op.Kind.Commutative() || len(op.In) != 2 || op.In[0] == op.In[1] {
			continue
		}
		d0, d1 := op.In[0].Def, op.In[1].Def
		if d0 == nil || d1 == nil || len(d0.In) != 0 || len(d1.In) != 0 || d0.Kind != d1.Kind {
			continue
		}
		if len(d0.Out.Uses) != 1 || len(d1.Out.Uses) != 1 {
			continue
		}
		if d0.ID == anchor || d1.ID == anchor {
			continue
		}
		a, b := d0.ID, d1.ID
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, [2]int{a, b})
	}
	return pairs
}

// initSymmetry performs the II-independent symmetry analysis for a
// template: fabric automorphism discovery plus DFG value-swap
// detection. Called from NewTemplate only when the resolved mode is on.
func (t *Template) initSymmetry(a *arch.Arch) {
	t.symmetry = true
	if t.g.NumOps() == 0 {
		return
	}
	t.anchorOp = t.g.Ops()[0].ID
	t.syms = arch.Discover(a)
	t.valueSwaps = findValueSwaps(t.g, t.anchorOp)
	t.approxBytes += int64(len(t.syms.Gens)) * int64(len(a.Prims)) * 16
}

// liftGenFU lifts one fabric generator to the functional-unit nodes of
// the stamped MRRG: lift[p] is the image FuncUnit node of p, or -1.
// The lift acts context-uniformly (automorphisms preserve FU IIs, so
// image units fire in the same contexts). It fails — and with it this
// stamp's entire fabric-symmetry emission — if any placement variable's
// image slot is missing, which would mean the generator is not closed
// on the placement support. Legality and reachability are symmetric
// under a verified automorphism, so failure indicates a bug upstream;
// the check turns that bug into "no symmetry breaking" instead of an
// unsound model.
func (s *stamper) liftGenFU(gen *arch.Automorphism) ([]int, bool) {
	mg := s.mg
	lift := make([]int, len(mg.Nodes))
	for i := range lift {
		lift[i] = -1
	}
	for _, p := range mg.FuncUnits() {
		n := mg.Nodes[p]
		img := mg.NodeByName("c" + strconv.Itoa(n.Context) + "." + mg.Arch.Prims[gen.Perm[n.Prim]].Name)
		if img == nil {
			return nil, false
		}
		lift[p] = img.ID
	}
	// Closure of every operation's placement support under the lift.
	for _, op := range s.t.g.Ops() {
		for _, p := range s.legal[op.ID] {
			if _, ok := s.f.fvar[op.ID][lift[p]]; !ok {
				return nil, false
			}
		}
	}
	return lift, true
}

// addSymmetryConstraints emits the symmetry-breaking constraint groups
// after the paper's constraints (1)-(9):
//
//   - "sym-orbit": the anchor operation (the DFG's first) may only be
//     placed on the canonical representative of each fabric orbit. For
//     any mapping some group element moves the anchor onto its orbit's
//     representative, so at least one member of every solution orbit
//     survives.
//   - "sym-lex": for each verified generator π, the placement vector
//     must be lexicographically <= its image under π. Sound for any
//     subset of group elements — the orbit's lex-minimal solution
//     satisfies them all — and that same witness places the anchor on
//     the orbit representative (slots ascend by node ID and 0 < 1, so
//     the lex-minimal anchor block pushes its single 1 to the
//     highest-index slot, which is how arch.Symmetries defines the
//     representative). The two groups therefore compose soundly.
//   - "sym-swap": interchangeable commutative operand producers are
//     ordered by the same lexicographic device.
//
// Everything here is emitted in deterministic order and participates in
// the template/stamp byte-equivalence guarantee; the constraints only
// remove symmetric duplicates, never all members of a solution orbit,
// so feasibility status and minimal II are unchanged.
func (s *stamper) addSymmetryConstraints() {
	t := s.t
	if t.syms != nil && !t.syms.Trivial() {
		lifts := make([][]int, len(t.syms.Gens))
		ok := true
		for gi := range t.syms.Gens {
			lift, good := s.liftGenFU(&t.syms.Gens[gi])
			if !good {
				ok = false
				break
			}
			lifts[gi] = lift
		}
		// All or nothing: orbit fixing is justified by the *full*
		// generated group, so dropping one failed generator while
		// keeping orbit constraints derived from it would be unsound.
		if ok {
			s.addOrbitFixing()
			for gi := range t.syms.Gens {
				s.addLexChain("sym-lex", t.syms.Gens[gi].Name, s.lexPositions(lifts[gi]))
			}
		}
	}
	for _, pair := range t.valueSwaps {
		s.addValueSwap(pair[0], pair[1])
	}
}

// addOrbitFixing forbids the anchor operation on non-representative
// orbit members (one constraint summing the excluded slots to zero).
func (s *stamper) addOrbitFixing() {
	t, f, mg := s.t, s.f, s.mg
	syms := t.syms
	s.terms = s.terms[:0]
	for _, p := range s.legal[t.anchorOp] {
		prim := mg.Nodes[p].Prim
		rep := syms.OrbitRep(prim)
		if rep == prim {
			continue
		}
		// Defensive: only exclude a slot when the representative slot
		// in the same context is actually available to the anchor
		// (guaranteed by generator closure, checked cheaply anyway).
		repNode := mg.NodeByName("c" + strconv.Itoa(mg.Nodes[p].Context) + "." + mg.Arch.Prims[rep].Name)
		if repNode == nil {
			continue
		}
		if _, ok := f.fvar[t.anchorOp][repNode.ID]; !ok {
			continue
		}
		s.terms = append(s.terms, ilp.Term{Var: f.fvar[t.anchorOp][p], Coef: 1})
	}
	if len(s.terms) > 0 {
		f.model.AddLE("sym-orbit", s.terms, 0)
	}
}

// lexPosition is one slot of the canonical placement vector paired with
// its image under a generator.
type lexPosition struct {
	x, y ilp.Var
	// op/node identify the slot for stable aux-variable naming.
	op   string
	node string
}

// lexPositions builds the canonical placement vector for one lifted
// generator: operations in creation order (the anchor leads, matching
// the orbit-fixing argument), slots ascending by node ID within each
// operation. Fixed points contribute equal positions and are skipped —
// removing always-equal positions preserves the lexicographic relation
// exactly. The list is truncated to maxLexPositions.
func (s *stamper) lexPositions(lift []int) []lexPosition {
	f, mg := s.f, s.mg
	var pos []lexPosition
	for _, op := range s.t.g.Ops() {
		for _, p := range s.legal[op.ID] {
			img := lift[p]
			if img == p {
				continue
			}
			pos = append(pos, lexPosition{
				x:    f.fvar[op.ID][p],
				y:    f.fvar[op.ID][img],
				op:   op.Name,
				node: mg.Nodes[p].Name,
			})
			if len(pos) == maxLexPositions {
				return pos
			}
		}
	}
	return pos
}

// addValueSwap emits the lexicographic ordering between the placement
// blocks of two interchangeable operations. The blocks must be
// identical slot-for-slot (same kind implies the same legality mask,
// and the swap symmetry makes reachability refinement agree); if they
// ever diverge the pair is skipped rather than mis-aligned.
func (s *stamper) addValueSwap(a, b int) {
	f, mg := s.f, s.mg
	la, lb := s.legal[a], s.legal[b]
	if len(la) != len(lb) {
		return
	}
	for i := range la {
		if la[i] != lb[i] {
			return
		}
	}
	opA := s.t.g.Ops()[a]
	opB := s.t.g.Ops()[b]
	var pos []lexPosition
	for _, p := range la {
		pos = append(pos, lexPosition{
			x:    f.fvar[a][p],
			y:    f.fvar[b][p],
			op:   opA.Name + "+" + opB.Name,
			node: mg.Nodes[p].Name,
		})
		if len(pos) == maxLexPositions {
			break
		}
	}
	s.addLexChain("sym-swap", "swap", pos)
}

// addLexChain encodes x <=lex y over the given positions in the
// solver's native clause vocabulary: unit-coefficient >= constraints
// that the CDCL engine lowers to watched clauses. Auxiliary
// prefix-equality variables e_i ("positions 0..i agree") chain the
// positions:
//
//	x_0 <= y_0
//	e_i  <-> e_{i-1} and x_i == y_i     (e_{-1} = true)
//	e_{i-1} -> x_{i+1} <= y_{i+1}
//
// Aux variables are named by (group, generator, slot).
func (s *stamper) addLexChain(group, gen string, pos []lexPosition) {
	if len(pos) == 0 {
		return
	}
	f := s.f
	clause := func(terms ...ilp.Term) {
		rhs := 1
		for _, t := range terms {
			if t.Coef < 0 {
				rhs-- // negated literal: (1 - v) contributes the constant
			}
		}
		f.model.AddGE(group, terms, rhs)
	}
	// x_0 <= y_0.
	f.model.AddLE(group, []ilp.Term{{Var: pos[0].x, Coef: 1}, {Var: pos[0].y, Coef: -1}}, 0)
	var prev ilp.Var
	for i := 0; i+1 < len(pos); i++ {
		x, y := pos[i].x, pos[i].y
		e := f.model.BinaryComposite("SE", gen+"/"+pos[i].op, pos[i].node, -1)
		if i == 0 {
			// e_0 <-> (x_0 == y_0).
			clause(ilp.Term{Var: e, Coef: -1}, ilp.Term{Var: x, Coef: -1}, ilp.Term{Var: y, Coef: 1})
			clause(ilp.Term{Var: e, Coef: -1}, ilp.Term{Var: x, Coef: 1}, ilp.Term{Var: y, Coef: -1})
			clause(ilp.Term{Var: x, Coef: -1}, ilp.Term{Var: y, Coef: -1}, ilp.Term{Var: e, Coef: 1})
			clause(ilp.Term{Var: x, Coef: 1}, ilp.Term{Var: y, Coef: 1}, ilp.Term{Var: e, Coef: 1})
		} else {
			// e_i -> e_{i-1}; e_i <-> e_{i-1} and (x_i == y_i).
			clause(ilp.Term{Var: e, Coef: -1}, ilp.Term{Var: prev, Coef: 1})
			clause(ilp.Term{Var: e, Coef: -1}, ilp.Term{Var: x, Coef: -1}, ilp.Term{Var: y, Coef: 1})
			clause(ilp.Term{Var: e, Coef: -1}, ilp.Term{Var: x, Coef: 1}, ilp.Term{Var: y, Coef: -1})
			clause(ilp.Term{Var: prev, Coef: -1}, ilp.Term{Var: x, Coef: -1}, ilp.Term{Var: y, Coef: -1}, ilp.Term{Var: e, Coef: 1})
			clause(ilp.Term{Var: prev, Coef: -1}, ilp.Term{Var: x, Coef: 1}, ilp.Term{Var: y, Coef: 1}, ilp.Term{Var: e, Coef: 1})
		}
		// e_i -> x_{i+1} <= y_{i+1}.
		clause(ilp.Term{Var: e, Coef: -1}, ilp.Term{Var: pos[i+1].x, Coef: -1}, ilp.Term{Var: pos[i+1].y, Coef: 1})
		prev = e
	}
}
