// Package cdcl implements the repository's default ILP engine: a
// conflict-driven clause-learning (CDCL) search procedure specialised for
// 0-1 programs whose constraints have unit (+1/-1) coefficients — which
// is exactly the structure of the paper's CGRA-mapping formulation
// (eqs. 1–10; every constraint is a clause, an at-most-k, or an equality
// of unit sums).
//
// The engine is a complete decision procedure: it proves feasibility,
// infeasibility, and — by iteratively tightening a bound on the objective
// — optimality, the three properties the paper obtains from Gurobi (see
// DESIGN.md, substitutions).
//
// Implementation: two-watched-literal clause propagation with blocker
// literals (a binary clause is decided from its watch entry alone) over a
// pointer-free clause arena, counter-based cardinality propagation
// (skipped on one flag for the literals in no card), first-UIP conflict
// analysis, VSIDS variable activities, phase saving (default phase
// false: mapping solutions are sparse), Luby restarts, and
// activity-based learnt-clause reduction with arena compaction.
package cdcl

// lit is a literal: variable index shifted left once, low bit set when
// negated.
type lit int32

const litUndef lit = -1

func mkLit(v int, neg bool) lit {
	l := lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// vi returns the literal's variable index.
func (l lit) vi() int { return int(l >> 1) }

// neg returns the complementary literal.
func (l lit) neg() lit { return l ^ 1 }

// sign reports whether the literal is negated.
func (l lit) sign() bool { return l&1 == 1 }

// lbool is a three-valued assignment.
type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)
