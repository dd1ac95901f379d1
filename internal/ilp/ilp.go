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
	"math"
	"sort"
	"strconv"
)

// Var identifies a binary decision variable within a Model.
type Var int32

// Term is one coefficient*variable product of a linear expression. It
// is eight bytes and holds no pointer, so a model's term slab is never
// scanned by the garbage collector.
type Term struct {
	Var  Var
	Coef int32
}

// Rel is a linear constraint relation.
type Rel uint8

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

// Constraint is one row of a model: sum(Model.Terms(i)) Rel RHS, named
// Model.ConstraintName(i). A row is sixteen bytes and holds no pointer:
// its terms are the slice of the model's term slab that ends at end and
// starts where the previous row's end, and its name is an index into the
// model's table of constraint names (for mapping models, the paper's
// constraint families).
type Constraint struct {
	end    int32
	RHS    int32
	family int32
	Rel    Rel
}

// varName is a variable's diagnostic name as indices into the model's
// name-part table: "prefix" when a < 0, otherwise "prefix[a,b]", or
// "prefix[a,b,k]" when k >= 0. Mapping models create hundreds of
// thousands of variables over a few thousand distinct parts (MRRG node,
// operation and value names), so a name costs sixteen pointer-free bytes
// and is formatted only on demand.
type varName struct {
	prefix, a, b int32
	k            int32
}

// maxIndex bounds every count the int32 storage indexes: variables,
// terms and name parts. Tests lower it to reach the bound cheaply.
var maxIndex = math.MaxInt32

// Model is a 0-1 integer linear program. All variables are binary.
//
// Its bulk storage (variable names, constraint rows, the term slab and
// the hint tables) is held in arrays without pointers. Input that does
// not fit that storage (a right-hand side or objective coefficient
// outside int32, more than maxIndex variables or terms) is not narrowed:
// the first such input is kept as the model's error, which Validate
// (and so every solver) and WriteLP report.
type Model struct {
	// Name labels the model.
	Name string
	// Objective is minimised; an empty objective makes the model a
	// pure feasibility problem.
	Objective []Term
	// Constraints holds the rows in emission order; their terms and
	// names are read through Terms and ConstraintName.
	Constraints []Constraint

	names []varName
	// parts is the name-part table names index into.
	parts []string
	// terms is the term slab: row i's terms are terms[Constraints[i-1].end:
	// Constraints[i].end].
	terms []Term
	// families holds the distinct constraint names, in order of first
	// use.
	families []string
	// priorities and phases are dense per-variable hint tables (index =
	// Var), grown on first write; nil when no hint was ever set.
	priorities []int32
	phases     []bool

	err error
}

// NewModel returns an empty model.
func NewModel(name string) *Model {
	return &Model{Name: name}
}

// fail keeps the first storage error.
func (m *Model) fail(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf("ilp %s: "+format, append([]any{m.Name}, args...)...)
	}
}

// Reserve pre-sizes the model's backing storage for the given variable,
// constraint and term counts. It never changes model content — only
// where appends land — so callers that know a model's shape in advance
// (e.g. a formulation template re-stamping a sibling II) skip the
// incremental growth copies. Counts at or below current capacity are
// no-ops; more variables or terms than the int32 storage can index is
// an error.
func (m *Model) Reserve(nvars, ncons, nterms int) error {
	if nvars > maxIndex || nterms > maxIndex {
		return fmt.Errorf("ilp %s: cannot reserve %d variables and %d terms (at most %d each)",
			m.Name, nvars, nterms, maxIndex)
	}
	m.names = reserve(m.names, nvars)
	m.Constraints = reserve(m.Constraints, ncons)
	m.terms = reserve(m.terms, nterms)
	return nil
}

// reserve returns s with capacity for at least n elements.
func reserve[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	grown := make([]T, len(s), n)
	copy(grown, s)
	return grown
}

// NameParts appends parts to the model's name-part table and returns
// the index of the first, for BinaryParts. A formulation adds its node,
// operation and value names once and names every variable by index.
func (m *Model) NameParts(parts ...string) int32 {
	first := len(m.parts)
	if first+len(parts) > maxIndex {
		m.fail("more than %d variable name parts", maxIndex)
		return -1
	}
	m.parts = append(m.parts, parts...)
	return int32(first)
}

// Binary adds a binary variable with the given diagnostic name.
func (m *Model) Binary(name string) Var {
	return m.BinaryParts(m.NameParts(name), -1, -1, -1)
}

// BinaryParts adds a binary variable named by name-part indices (see
// NameParts): "parts[prefix]" when a < 0, otherwise
// "parts[prefix][parts[a],parts[b]]", with ",k" before the closing
// bracket when k >= 0. This is the allocation-free naming path for bulk
// variable creation. It returns -1, and keeps an error, when the model
// already holds maxIndex variables or an index names no part.
func (m *Model) BinaryParts(prefix, a, b int32, k int) Var {
	switch {
	case len(m.names) >= maxIndex:
		m.fail("more than %d variables", maxIndex)
		return -1
	case !m.isPart(prefix) || a >= 0 && (!m.isPart(a) || !m.isPart(b)):
		m.fail("variable %d names undeclared name parts (%d, %d, %d)", len(m.names), prefix, a, b)
		return -1
	case k > maxIndex:
		m.fail("variable %d has name index %d past %d", len(m.names), k, maxIndex)
		return -1
	}
	if a < 0 || k < 0 {
		k = -1
	}
	if a < 0 {
		a, b = -1, -1
	}
	m.names = append(m.names, varName{prefix: prefix, a: a, b: b, k: int32(k)})
	return Var(len(m.names) - 1)
}

func (m *Model) isPart(i int32) bool { return i >= 0 && int(i) < len(m.parts) }

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.names) }

// plain reports whether n formats as its prefix alone: a plain name, or
// a composite whose two inner parts are both empty.
func (m *Model) plain(n varName) bool {
	return n.a < 0 || m.parts[n.a] == "" && m.parts[n.b] == ""
}

// VarName returns the diagnostic name of v.
func (m *Model) VarName(v Var) string {
	if int(v) < 0 || int(v) >= len(m.names) {
		return fmt.Sprintf("x%d", int(v))
	}
	n := m.names[v]
	if m.plain(n) {
		return m.parts[n.prefix]
	}
	name := m.parts[n.prefix] + "[" + m.parts[n.a] + "," + m.parts[n.b]
	if n.k >= 0 {
		name += "," + strconv.Itoa(int(n.k))
	}
	return name + "]"
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

// family returns the index of a constraint name, adding it on first
// use. It scans the distinct names: a formulation uses about a dozen.
func (m *Model) family(name string) int32 {
	for i, fam := range m.families {
		if fam == name {
			return int32(i)
		}
	}
	m.families = append(m.families, name)
	return int32(len(m.families) - 1)
}

// Add appends the constraint sum(terms) rel rhs. The terms are copied
// into the model's term slab, so the caller may reuse its buffer for the
// next constraint. A right-hand side outside int32 is kept as the
// model's error naming the constraint; a constraint that would take the
// slab past maxIndex terms is not added, and the error names it too.
func (m *Model) Add(name string, terms []Term, rel Rel, rhs int) {
	i := len(m.Constraints)
	end := len(m.terms) + len(terms)
	if end > maxIndex {
		m.fail("constraint %d (%s) would take the model past %d terms", i, name, maxIndex)
		return
	}
	if rhs < math.MinInt32 || rhs > math.MaxInt32 {
		m.fail("constraint %d (%s): right-hand side %d does not fit in int32", i, name, rhs)
	}
	m.terms = append(m.terms, terms...)
	m.Constraints = append(m.Constraints, Constraint{end: int32(end), RHS: int32(rhs), family: m.family(name), Rel: rel})
}

// AddLE appends sum(terms) <= rhs.
func (m *Model) AddLE(name string, terms []Term, rhs int) { m.Add(name, terms, LE, rhs) }

// AddGE appends sum(terms) >= rhs.
func (m *Model) AddGE(name string, terms []Term, rhs int) { m.Add(name, terms, GE, rhs) }

// AddEQ appends sum(terms) = rhs.
func (m *Model) AddEQ(name string, terms []Term, rhs int) { m.Add(name, terms, EQ, rhs) }

// Terms returns constraint i's terms. The slice aliases the model's
// storage and must not be modified.
func (m *Model) Terms(i int) []Term {
	lo := int32(0)
	if i > 0 {
		lo = m.Constraints[i-1].end
	}
	hi := m.Constraints[i].end
	return m.terms[lo:hi:hi]
}

// ConstraintName returns constraint i's diagnostic name.
func (m *Model) ConstraintName(i int) string {
	return m.families[m.Constraints[i].family]
}

// Minimize adds coef*v to the objective. A coefficient outside int32 is
// kept as the model's error instead.
func (m *Model) Minimize(v Var, coef int) {
	if coef < math.MinInt32 || coef > math.MaxInt32 {
		m.fail("objective: coefficient %d on %s does not fit in int32", coef, m.VarName(v))
		return
	}
	m.Objective = append(m.Objective, Term{Var: v, Coef: int32(coef)})
}

// Sum builds a unit-coefficient term list over vars.
func Sum(vars ...Var) []Term {
	ts := make([]Term, len(vars))
	for i, v := range vars {
		ts[i] = Term{Var: v, Coef: 1}
	}
	return ts
}

// Validate reports the model's storage error, if any, then checks that
// every term references a declared variable and has a non-zero
// coefficient. The happy path allocates nothing: mapping models carry
// hundreds of thousands of terms, so the context strings are only built
// once a violation is found.
func (m *Model) Validate() error {
	if m.err != nil {
		return m.err
	}
	bad := func(terms []Term) int {
		for j, t := range terms {
			if int(t.Var) < 0 || int(t.Var) >= len(m.names) || t.Coef == 0 {
				return j
			}
		}
		return -1
	}
	describe := func(where string, t Term) error {
		if int(t.Var) < 0 || int(t.Var) >= len(m.names) {
			return fmt.Errorf("ilp %s: %s references undeclared variable %d", m.Name, where, int(t.Var))
		}
		return fmt.Errorf("ilp %s: %s has zero coefficient on %s", m.Name, where, m.VarName(t.Var))
	}
	if j := bad(m.terms); j >= 0 {
		i := sort.Search(len(m.Constraints), func(i int) bool { return int(m.Constraints[i].end) > j })
		return describe(fmt.Sprintf("constraint %d (%s)", i, m.ConstraintName(i)), m.terms[j])
	}
	if j := bad(m.Objective); j >= 0 {
		return describe("objective", m.Objective[j])
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
	s := Stats{Vars: m.NumVars(), Constraints: len(m.Constraints), ByName: make(map[string]int), Terms: len(m.terms)}
	perFamily := make([]int, len(m.families))
	lo := int32(0)
	for _, c := range m.Constraints {
		perFamily[c.family]++
		s.LongestConstraint = max(s.LongestConstraint, int(c.end-lo))
		lo = c.end
	}
	for f, n := range perFamily {
		if n > 0 {
			s.ByName[m.families[f]] = n
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
			sum += int(t.Coef)
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
		lhs, rhs := a.Eval(m.Terms(i)), int(c.RHS)
		ok := false
		switch c.Rel {
		case LE:
			ok = lhs <= rhs
		case GE:
			ok = lhs >= rhs
		case EQ:
			ok = lhs == rhs
		}
		if !ok {
			return fmt.Errorf("ilp %s: constraint %d (%s) violated: %d %s %d", m.Name, i, m.ConstraintName(i), lhs, c.Rel, rhs)
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
