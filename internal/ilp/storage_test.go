package ilp

import (
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// pointerFree reports whether values of t hold no pointer the garbage
// collector would have to scan.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return true
	default:
		return false
	}
}

// TestStorageIsCompactAndPointerFree: the per-variable, per-constraint
// and per-term element types of a model hold no pointers and stay within
// 16, 16 and 8 bytes.
func TestStorageIsCompactAndPointerFree(t *testing.T) {
	for _, c := range []struct {
		what  string
		typ   reflect.Type
		bound uintptr
	}{
		{"variable name", reflect.TypeOf(varName{}), 16},
		{"constraint", reflect.TypeOf(Constraint{}), 16},
		{"term", reflect.TypeOf(Term{}), 8},
	} {
		if !pointerFree(c.typ) {
			t.Errorf("%s storage %v holds pointers", c.what, c.typ)
		}
		if c.typ.Size() > c.bound {
			t.Errorf("%s storage %v is %d bytes, want at most %d", c.what, c.typ, c.typ.Size(), c.bound)
		}
	}
	m := NewModel("types")
	for _, s := range []any{m.names, m.Constraints, m.terms, m.priorities, m.phases} {
		if typ := reflect.TypeOf(s).Elem(); !pointerFree(typ) {
			t.Errorf("model storage []%v holds pointers", typ)
		}
	}
}

// withMaxIndex lowers the storage bound for one test.
func withMaxIndex(t *testing.T, n int) {
	old := maxIndex
	maxIndex = n
	t.Cleanup(func() { maxIndex = old })
}

// wantStorageError checks that Validate and WriteLP both report the
// model's storage error and that it mentions every fragment.
func wantStorageError(t *testing.T, m *Model, fragments ...string) {
	t.Helper()
	err := m.Validate()
	if err == nil {
		t.Fatal("Validate accepted input the storage cannot hold")
	}
	for _, f := range fragments {
		if !strings.Contains(err.Error(), f) {
			t.Errorf("Validate error %q does not mention %q", err, f)
		}
	}
	if werr := m.WriteLP(io.Discard); werr == nil || werr.Error() != err.Error() {
		t.Errorf("WriteLP error %v, want %v", werr, err)
	}
}

// TestRHSOutsideInt32IsAnError: a right-hand side outside int32 is
// reported with the constraint's name instead of being narrowed.
func TestRHSOutsideInt32IsAnError(t *testing.T) {
	for _, rhs := range []int{1 << 31, -1<<31 - 1, 1 << 40} {
		m := NewModel("rhs")
		x := m.Binary("x")
		m.AddLE("fits", Sum(x), -1<<31)
		m.AddGE("wide", Sum(x), rhs)
		wantStorageError(t, m, "constraint 1 (wide)", "right-hand side")
	}
}

// TestObjectiveCoefficientOutsideInt32IsAnError: Minimize stores a
// coefficient that fits and reports one that does not.
func TestObjectiveCoefficientOutsideInt32IsAnError(t *testing.T) {
	m := NewModel("coef")
	x := m.Binary("x")
	m.Minimize(x, -1<<31)
	if err := m.Validate(); err != nil || len(m.Objective) != 1 || m.Objective[0].Coef != -1<<31 {
		t.Fatalf("Minimize(x, MinInt32): objective %v, error %v", m.Objective, err)
	}
	m.Minimize(x, 1<<31)
	wantStorageError(t, m, "objective", "coefficient 2147483648 on x")
}

// TestVariableCountBound: past maxIndex variables, a new variable is
// not created and the model reports the bound; Reserve refuses the
// count up front.
func TestVariableCountBound(t *testing.T) {
	withMaxIndex(t, 3)
	m := NewModel("vars")
	if err := m.Reserve(4, 0, 0); err == nil {
		t.Error("Reserve accepted 4 variables with room for 3")
	}
	p := m.NameParts("x")
	for i := 0; i < 3; i++ {
		if v := m.BinaryParts(p, -1, -1, -1); v != Var(i) {
			t.Fatalf("variable %d numbered %d", i, v)
		}
	}
	if v := m.BinaryParts(p, -1, -1, -1); v != -1 || m.NumVars() != 3 {
		t.Errorf("variable past the bound numbered %d, model has %d", v, m.NumVars())
	}
	wantStorageError(t, m, "more than 3 variables")
}

// TestTermOffsetBound: a constraint whose terms would take the slab past
// maxIndex terms is not added, and the error names it; Reserve refuses
// the count up front.
func TestTermOffsetBound(t *testing.T) {
	withMaxIndex(t, 4)
	m := NewModel("terms")
	if err := m.Reserve(0, 0, 5); err == nil {
		t.Error("Reserve accepted 5 terms with room for 4")
	}
	if err := m.Reserve(2, 2, 4); err != nil {
		t.Errorf("Reserve within the bound: %v", err)
	}
	x, y := m.Binary("x"), m.Binary("y")
	m.AddLE("three", []Term{{x, 1}, {y, 1}, {x, 1}}, 1)
	m.AddLE("two", Sum(x, y), 1)
	if len(m.Constraints) != 1 || len(m.Terms(0)) != 3 {
		t.Errorf("model has %d constraints, want only the first", len(m.Constraints))
	}
	wantStorageError(t, m, "constraint 1 (two)", "4 terms")
}

// TestCompositeNames: names built from part indices format as
// "prefix", "prefix[a,b]" or "prefix[a,b,k]", a composite whose inner
// parts are both empty formats as its prefix, and an index that names
// no part is refused.
func TestCompositeNames(t *testing.T) {
	m := NewModel("names")
	p := m.NameParts("R", "c0.pe", "v", "F", "op", "E", "")
	want := map[Var]string{
		m.BinaryParts(p, p+1, p+2, 2):    "R[c0.pe,v,2]",
		m.BinaryParts(p+3, p+1, p+4, -1): "F[c0.pe,op]",
		m.BinaryParts(p+5, p+6, p+6, 5):  "E",
		m.BinaryParts(p+2, -1, -1, 7):    "v",
	}
	for v, name := range want {
		if got := m.VarName(v); got != name {
			t.Errorf("VarName(%d) = %q, want %q", v, got, name)
		}
	}
	if v := m.BinaryParts(p, 99, p, -1); v != -1 || m.Validate() == nil {
		t.Error("BinaryParts accepted an undeclared name part")
	}
}

// TestManyConstraintNames: with many distinct constraint names, rows
// still read back their own names and Stats groups them.
func TestManyConstraintNames(t *testing.T) {
	m := NewModel("families")
	x := m.Binary("x")
	const names = 100
	for i := 0; i < 2*names; i++ {
		m.AddLE(strconv.Itoa(i%names), Sum(x), 1)
	}
	for i := range m.Constraints {
		if got, want := m.ConstraintName(i), strconv.Itoa(i%names); got != want {
			t.Fatalf("constraint %d named %q, want %q", i, got, want)
		}
	}
	if s := m.Stats(); len(s.ByName) != names || s.ByName["0"] != 2 {
		t.Errorf("Stats.ByName has %d names, %d rows named 0", len(s.ByName), s.ByName["0"])
	}
}

// TestCounter: the LP writer's decimal counter agrees with strconv.
func TestCounter(t *testing.T) {
	c := newCounter()
	for i := 0; i <= 123456; i++ {
		if got := string(c.digits()); got != strconv.Itoa(i) {
			t.Fatalf("counter at %d reads %q", i, got)
		}
		c.next()
	}
}
