// Package ilp provides a solver-independent modelling layer for 0-1
// integer linear programs: binary variables, linear constraints, a linear
// objective, feasibility checking, and an LP-format writer.
//
// The paper formulates CGRA mapping as an ILP over three families of
// binary variables and solves it with Gurobi; this package is the
// modelling seam that lets the formulation (internal/mapper) be solved by
// the repository's own engines (internal/solve/...) or exported in LP
// format for an external solver.
package ilp

import (
	"context"
	"fmt"
	"strconv"
)

// Var identifies a binary decision variable within a Model.
type Var int

// Term is one coefficient*variable product of a linear expression.
type Term struct {
	Var  Var
	Coef int
}

// Rel is a linear constraint relation.
type Rel int

const (
	// LE is "less than or equal".
	LE Rel = iota
	// GE is "greater than or equal".
	GE
	// EQ is "equal".
	EQ
)

// String returns the mathematical symbol of the relation.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("rel(%d)", int(r))
	}
}

// Constraint is a linear constraint sum(Terms) Rel RHS.
type Constraint struct {
	// Name labels the constraint for diagnostics (e.g. the paper
	// constraint family it came from).
	Name  string
	Terms []Term
	Rel   Rel
	RHS   int
}

// varName is a variable's diagnostic name in unformatted form. Mapping
// models create hundreds of thousands of variables whose names are all
// "prefix[a,b]" or "prefix[a,b,k]" over already-interned strings; storing
// the parts and formatting on demand keeps name construction off the
// model-build hot path entirely. A plain name uses only the prefix field.
type varName struct {
	prefix string
	a, b   string
	k      int32 // third component; < 0 when absent
}

func (n *varName) format() string {
	if n.a == "" && n.b == "" {
		return n.prefix
	}
	if n.k < 0 {
		return n.prefix + "[" + n.a + "," + n.b + "]"
	}
	return n.prefix + "[" + n.a + "," + n.b + "," + strconv.Itoa(int(n.k)) + "]"
}

// Model is a 0-1 integer linear program. All variables are binary.
type Model struct {
	// Name labels the model.
	Name string
	// Objective is minimised; an empty objective makes the model a
	// pure feasibility problem.
	Objective []Term

	names []varName
	// priorities and phases are dense per-variable hint tables (index =
	// Var), grown on first write; nil when no hint was ever set.
	priorities  []int32
	phases      []bool
	Constraints []Constraint

	// termArena backs constraint term lists: Add copies incoming terms
	// into the current chunk so small constraints share allocations and
	// callers can reuse their scratch buffers.
	termArena []Term
}

// NewModel returns an empty model.
func NewModel(name string) *Model {
	return &Model{Name: name}
}

// Reserve pre-sizes the model's backing storage for the given variable,
// constraint and term counts. It never changes model content — only
// where appends land — so callers that know a model's shape in advance
// (e.g. a formulation template re-stamping a sibling II) skip the
// incremental growth copies. Counts at or below current capacity are
// no-ops.
func (m *Model) Reserve(nvars, ncons, nterms int) {
	if nvars > cap(m.names) {
		grown := make([]varName, len(m.names), nvars)
		copy(grown, m.names)
		m.names = grown
	}
	if ncons > cap(m.Constraints) {
		grown := make([]Constraint, len(m.Constraints), ncons)
		copy(grown, m.Constraints)
		m.Constraints = grown
	}
	if len(m.termArena) == 0 && nterms > cap(m.termArena) {
		// Only a fresh arena may be replaced: constraints already hold
		// sub-slices of a used one.
		m.termArena = make([]Term, 0, nterms)
	}
}

// Binary adds a binary variable with the given diagnostic name.
func (m *Model) Binary(name string) Var {
	m.names = append(m.names, varName{prefix: name, k: -1})
	return Var(len(m.names) - 1)
}

// BinaryComposite adds a binary variable named "prefix[a,b]", or
// "prefix[a,b,k]" when k >= 0, without formatting the name now. This is
// the allocation-free naming path for bulk variable creation.
func (m *Model) BinaryComposite(prefix, a, b string, k int) Var {
	if k < 0 {
		k = -1
	}
	m.names = append(m.names, varName{prefix: prefix, a: a, b: b, k: int32(k)})
	return Var(len(m.names) - 1)
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.names) }

// VarName returns the diagnostic name of v.
func (m *Model) VarName(v Var) string {
	if int(v) < 0 || int(v) >= len(m.names) {
		return fmt.Sprintf("x%d", int(v))
	}
	return m.names[v].format()
}

// SetBranchPriority advises solvers to branch on higher-priority
// variables first (the analogue of Gurobi's BranchPriority attribute).
// The default priority is 0.
func (m *Model) SetBranchPriority(v Var, pri int) {
	if m.priorities == nil {
		m.priorities = make([]int32, len(m.names))
	}
	for int(v) >= len(m.priorities) {
		m.priorities = append(m.priorities, 0)
	}
	m.priorities[v] = int32(pri)
}

// BranchPriority returns the branch priority of v.
func (m *Model) BranchPriority(v Var) int {
	if int(v) < 0 || int(v) >= len(m.priorities) {
		return 0
	}
	return int(m.priorities[v])
}

// SetPhaseHint advises solvers to try the given value first when
// branching on v (the analogue of a solution hint). The default is false.
func (m *Model) SetPhaseHint(v Var, val bool) {
	if m.phases == nil {
		m.phases = make([]bool, len(m.names))
	}
	for int(v) >= len(m.phases) {
		m.phases = append(m.phases, false)
	}
	m.phases[v] = val
}

// PhaseHint returns the phase hint of v.
func (m *Model) PhaseHint(v Var) bool {
	if int(v) < 0 || int(v) >= len(m.phases) {
		return false
	}
	return m.phases[v]
}

// termArenaChunk is the growth unit of the term arena.
const termArenaChunk = 8192

// copyTerms copies terms into the arena and returns the stable,
// capacity-clipped sub-slice.
func (m *Model) copyTerms(terms []Term) []Term {
	if len(terms) == 0 {
		return nil
	}
	if cap(m.termArena)-len(m.termArena) < len(terms) {
		size := termArenaChunk
		if size < len(terms) {
			size = len(terms)
		}
		m.termArena = make([]Term, 0, size)
	}
	start := len(m.termArena)
	m.termArena = append(m.termArena, terms...)
	return m.termArena[start:len(m.termArena):len(m.termArena)]
}

// Add appends the constraint sum(terms) rel rhs. The terms are copied,
// so the caller may reuse its buffer for the next constraint.
func (m *Model) Add(name string, terms []Term, rel Rel, rhs int) {
	m.Constraints = append(m.Constraints, Constraint{Name: name, Terms: m.copyTerms(terms), Rel: rel, RHS: rhs})
}

// AddLE appends sum(terms) <= rhs.
func (m *Model) AddLE(name string, terms []Term, rhs int) { m.Add(name, terms, LE, rhs) }

// AddGE appends sum(terms) >= rhs.
func (m *Model) AddGE(name string, terms []Term, rhs int) { m.Add(name, terms, GE, rhs) }

// AddEQ appends sum(terms) = rhs.
func (m *Model) AddEQ(name string, terms []Term, rhs int) { m.Add(name, terms, EQ, rhs) }

// Sum builds a unit-coefficient term list over vars.
func Sum(vars ...Var) []Term {
	ts := make([]Term, len(vars))
	for i, v := range vars {
		ts[i] = Term{Var: v, Coef: 1}
	}
	return ts
}

// Validate checks that every term references a declared variable and has
// a non-zero coefficient. The happy path allocates nothing: mapping
// models carry hundreds of thousands of terms, so the per-constraint
// context strings are only built once a violation is found.
func (m *Model) Validate() error {
	check := func(terms []Term) (Var, bool) {
		for _, t := range terms {
			if int(t.Var) < 0 || int(t.Var) >= len(m.names) || t.Coef == 0 {
				return t.Var, false
			}
		}
		return 0, true
	}
	describe := func(where string, v Var) error {
		if int(v) < 0 || int(v) >= len(m.names) {
			return fmt.Errorf("ilp %s: %s references undeclared variable %d", m.Name, where, int(v))
		}
		return fmt.Errorf("ilp %s: %s has zero coefficient on %s", m.Name, where, m.VarName(v))
	}
	for i, c := range m.Constraints {
		if v, ok := check(c.Terms); !ok {
			return describe(fmt.Sprintf("constraint %d (%s)", i, c.Name), v)
		}
	}
	if v, ok := check(m.Objective); !ok {
		return describe("objective", v)
	}
	return nil
}

// Stats summarises a model: variable count and constraints grouped by
// their diagnostic name (for mapping models, the paper's constraint
// families).
type Stats struct {
	Vars              int
	Constraints       int
	ByName            map[string]int
	Terms             int
	LongestConstraint int
}

// Stats computes model statistics.
func (m *Model) Stats() Stats {
	s := Stats{Vars: m.NumVars(), Constraints: len(m.Constraints), ByName: make(map[string]int)}
	for i := range m.Constraints {
		c := &m.Constraints[i]
		s.ByName[c.Name]++
		s.Terms += len(c.Terms)
		if len(c.Terms) > s.LongestConstraint {
			s.LongestConstraint = len(c.Terms)
		}
	}
	return s
}

// Assignment is a candidate solution: one boolean per variable.
type Assignment []bool

// Eval computes the value of a linear expression under the assignment.
func (a Assignment) Eval(terms []Term) int {
	sum := 0
	for _, t := range terms {
		if a[t.Var] {
			sum += t.Coef
		}
	}
	return sum
}

// Check reports the first violated constraint, or nil if the assignment
// is feasible.
func (m *Model) Check(a Assignment) error {
	if len(a) != len(m.names) {
		return fmt.Errorf("ilp %s: assignment has %d values, want %d", m.Name, len(a), len(m.names))
	}
	for i, c := range m.Constraints {
		lhs := a.Eval(c.Terms)
		ok := false
		switch c.Rel {
		case LE:
			ok = lhs <= c.RHS
		case GE:
			ok = lhs >= c.RHS
		case EQ:
			ok = lhs == c.RHS
		}
		if !ok {
			return fmt.Errorf("ilp %s: constraint %d (%s) violated: %d %s %d", m.Name, i, c.Name, lhs, c.Rel, c.RHS)
		}
	}
	return nil
}

// Status is the outcome of a solve.
type Status int

const (
	// Unknown means the solver could not decide within its budget
	// (e.g. timeout with no incumbent) — the paper's "T" entries.
	Unknown Status = iota
	// Infeasible means the model provably has no feasible assignment.
	Infeasible
	// Feasible means a feasible assignment was found but optimality
	// was not proven (e.g. timeout during objective tightening).
	Feasible
	// Optimal means the returned assignment is provably optimal (any
	// feasible assignment when the objective is empty).
	Optimal
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Unknown:
		return "unknown"
	case Infeasible:
		return "infeasible"
	case Feasible:
		return "feasible"
	case Optimal:
		return "optimal"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Mark renders the status the way the paper's Table 2 does: "1" when a
// mapping exists (Feasible/Optimal), "0" when mapping is provably
// impossible, "T" when the solver could not decide within its budget.
func (s Status) Mark() string {
	switch s {
	case Optimal, Feasible:
		return "1"
	case Infeasible:
		return "0"
	default:
		return "T"
	}
}

// StatusFromString resolves a name produced by Status.String.
func StatusFromString(name string) (Status, error) {
	switch name {
	case "unknown":
		return Unknown, nil
	case "infeasible":
		return Infeasible, nil
	case "feasible":
		return Feasible, nil
	case "optimal":
		return Optimal, nil
	default:
		return Unknown, fmt.Errorf("ilp: unknown solve status %q", name)
	}
}

// MarshalText encodes the status as its String form, so statuses embed in
// JSON (and any other textual encoding) as readable names instead of bare
// integers.
func (s Status) MarshalText() ([]byte, error) {
	if s < Unknown || s > Optimal {
		return nil, fmt.Errorf("ilp: cannot marshal invalid status %d", int(s))
	}
	return []byte(s.String()), nil
}

// UnmarshalText decodes a status name produced by MarshalText.
func (s *Status) UnmarshalText(text []byte) error {
	v, err := StatusFromString(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Solution is a solver result. Assignment and Objective are meaningful
// only for Feasible and Optimal statuses.
type Solution struct {
	Status     Status
	Assignment Assignment
	Objective  int
	// Stats carries engine-specific counters for diagnostics.
	Stats map[string]int64
}

// Solver is implemented by the repository's ILP engines.
type Solver interface {
	// Solve decides m, respecting ctx cancellation/deadline. A
	// cancelled solve returns the best known solution with status
	// Feasible or Unknown rather than an error.
	Solve(ctx context.Context, m *Model) (*Solution, error)
}
