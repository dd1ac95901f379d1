package ilp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func smallModel() (*Model, Var, Var, Var) {
	m := NewModel("small")
	x := m.Binary("x")
	y := m.Binary("y")
	z := m.Binary("z")
	m.AddEQ("pick-one", Sum(x, y, z), 1)
	m.AddLE("cap", []Term{{x, 2}, {y, 1}}, 2)
	m.Objective = []Term{{x, 3}, {y, 1}, {z, 2}}
	return m, x, y, z
}

func TestModelBasics(t *testing.T) {
	m, x, _, _ := smallModel()
	if m.NumVars() != 3 {
		t.Fatalf("NumVars = %d", m.NumVars())
	}
	if m.VarName(x) != "x" {
		t.Errorf("VarName = %q", m.VarName(x))
	}
	if m.VarName(Var(99)) == "" {
		t.Error("out-of-range VarName should still return something")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	m := NewModel("bad")
	x := m.Binary("x")
	m.AddLE("oops", []Term{{Var(7), 1}}, 1)
	if err := m.Validate(); err == nil {
		t.Error("undeclared variable accepted")
	}
	m2 := NewModel("bad2")
	m2.Binary("x")
	m2.Objective = []Term{{x, 0}}
	if err := m2.Validate(); err == nil {
		t.Error("zero coefficient accepted")
	}
}

func TestCheckAndEval(t *testing.T) {
	m, _, _, _ := smallModel()
	feasible := Assignment{false, true, false} // y
	if err := m.Check(feasible); err != nil {
		t.Errorf("feasible assignment rejected: %v", err)
	}
	if got := feasible.Eval(m.Objective); got != 1 {
		t.Errorf("objective = %d, want 1", got)
	}
	for name, a := range map[string]Assignment{
		"none picked": {false, false, false},
		"two picked":  {true, true, false},
	} {
		if err := m.Check(a); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := m.Check(Assignment{true}); err == nil {
		t.Error("wrong-length assignment accepted")
	}
}

func TestRelAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("Rel strings wrong")
	}
	for s, want := range map[Status]string{
		Unknown: "unknown", Infeasible: "infeasible", Feasible: "feasible", Optimal: "optimal",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestWriteLP(t *testing.T) {
	m, _, _, _ := smallModel()
	var sb strings.Builder
	if err := m.WriteLP(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Minimize", "Subject To", "Binary", "End", "x_v0", "= 1", "<= 2", "+ 3 x_v0"} {
		if !strings.Contains(out, want) {
			t.Errorf("LP output missing %q:\n%s", want, out)
		}
	}
	// Names with exotic characters must be sanitised but stay unique.
	m2 := NewModel("weird")
	a := m2.Binary("F[c0.pe/1,op:2]")
	b := m2.Binary("F[c0.pe/1;op:2]")
	m2.AddLE("c", Sum(a, b), 1)
	var sb2 strings.Builder
	if err := m2.WriteLP(&sb2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "_v0") || !strings.Contains(sb2.String(), "_v1") {
		t.Errorf("sanitised names lost uniqueness:\n%s", sb2.String())
	}
	// Empty objective still writes a syntactically plausible section.
	m3 := NewModel("feas")
	m3.Binary("x")
	var sb3 strings.Builder
	if err := m3.WriteLP(&sb3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb3.String(), "Minimize") {
		t.Error("empty-objective LP missing Minimize section")
	}
}

// refLPSafe and refWriteLP are the regexp/fmt LP writer WriteLP
// replaced, kept as the reference its output is compared against. The
// one deliberate difference is modelled in refLPName: a name that would
// start with a digit or '.' gets a leading '_'.
var refLPSafe = regexp.MustCompile(`[^A-Za-z0-9_.]`)

func refLPName(m *Model, v Var) string {
	name := refLPSafe.ReplaceAllString(m.VarName(v), "_")
	if name != "" && (name[0] == '.' || '0' <= name[0] && name[0] <= '9') {
		name = "_" + name
	}
	return fmt.Sprintf("%s_v%d", name, int(v))
}

func refWriteLP(m *Model, bw io.Writer) error {
	name := strings.NewReplacer("\n", " ", "\r", " ").Replace(m.Name)
	fmt.Fprintf(bw, "\\ Model: %s (%d binaries, %d constraints)\n", name, m.NumVars(), len(m.Constraints))
	fmt.Fprintln(bw, "Minimize")
	fmt.Fprint(bw, " obj:")
	if len(m.Objective) == 0 {
		fmt.Fprint(bw, " 0")
		if m.NumVars() > 0 {
			fmt.Fprintf(bw, " %s", refLPName(m, 0))
			fmt.Fprintf(bw, " - %s", refLPName(m, 0))
		}
	} else {
		refWriteTerms(bw, m, m.Objective)
	}
	fmt.Fprintln(bw)
	fmt.Fprintln(bw, "Subject To")
	for i, c := range m.Constraints {
		fmt.Fprintf(bw, " c%d:", i)
		refWriteTerms(bw, m, m.Terms(i))
		if len(m.Terms(i)) == 0 {
			fmt.Fprint(bw, " 0")
		}
		fmt.Fprintf(bw, " %s %d\n", c.Rel, c.RHS)
	}
	fmt.Fprintln(bw, "Binary")
	for v := 0; v < m.NumVars(); v++ {
		fmt.Fprintf(bw, " %s\n", refLPName(m, Var(v)))
	}
	_, err := fmt.Fprintln(bw, "End")
	return err
}

func refWriteTerms(w io.Writer, m *Model, terms []Term) {
	for _, t := range terms {
		switch {
		case t.Coef == 1:
			fmt.Fprintf(w, " + %s", refLPName(m, t.Var))
		case t.Coef == -1:
			fmt.Fprintf(w, " - %s", refLPName(m, t.Var))
		case t.Coef < 0:
			fmt.Fprintf(w, " - %d %s", -int64(t.Coef), refLPName(m, t.Var))
		default:
			fmt.Fprintf(w, " + %d %s", t.Coef, refLPName(m, t.Var))
		}
	}
}

// lpNameParts are the raw materials of one generated variable name:
// ASCII letters and digits, LP-unsafe punctuation, multi-byte runes,
// U+FFFD and invalid UTF-8.
var lpNameParts = []string{"", "a", "Z", "0", "7", ".", "_", "[", ",", "-", " ", "\n", "/", ":",
	"é", "日本", "\uFFFD", "\xff", "\xc3", "\xe6\x97", "pe_1.alu", "c0.in"}

type lpQuickModel struct{ m *Model }

// Generate builds a model over random plain and composite names (also
// undeclared variables and odd coefficients), with a random model name.
func (lpQuickModel) Generate(r *rand.Rand, size int) reflect.Value {
	word := func() string {
		var sb strings.Builder
		for n := r.Intn(5); n > 0; n-- {
			sb.WriteString(lpNameParts[r.Intn(len(lpNameParts))])
		}
		return sb.String()
	}
	m := NewModel(word())
	nv := 1 + r.Intn(size+1)
	for i := 0; i < nv; i++ {
		if r.Intn(2) == 0 {
			m.Binary(word())
		} else {
			p := m.NameParts(word(), word(), word())
			m.BinaryParts(p, p+1, p+2, r.Intn(4)-2)
		}
	}
	coefs := []int32{1, -1, 2, -3, math.MaxInt32, math.MinInt32}
	for nc := r.Intn(size + 1); nc > 0; nc-- {
		var ts []Term
		for nt := r.Intn(6); nt > 0; nt-- {
			ts = append(ts, Term{Var: Var(r.Intn(nv+2) - 1), Coef: coefs[r.Intn(len(coefs))]})
		}
		m.Add("c", ts, Rel(r.Intn(3)), r.Intn(7)-3)
	}
	if r.Intn(2) == 0 {
		m.Objective = []Term{{Var: Var(r.Intn(nv)), Coef: coefs[r.Intn(len(coefs))]}}
	}
	return reflect.ValueOf(lpQuickModel{m})
}

// TestWriteLPMatchesReference: the append-based writer is byte-identical
// to the regexp/fmt reference on arbitrary names, including non-ASCII
// runes and invalid UTF-8, each of which sanitises to exactly one '_'.
func TestWriteLPMatchesReference(t *testing.T) {
	prop := func(q lpQuickModel) bool {
		var got, want bytes.Buffer
		if err := q.m.WriteLP(&got); err != nil {
			return false
		}
		if err := refWriteLP(q.m, &want); err != nil {
			return false
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Logf("got:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestWriteLPNameRules: names LP readers would reject (a leading digit
// or '.') gain a '_', other names do not, and a multi-line model name
// stays on the one comment line.
func TestWriteLPNameRules(t *testing.T) {
	m := NewModel("two\nlines\r")
	for _, name := range []string{"1a", ".x", "x1", "_1"} {
		m.Binary(name)
	}
	p := m.NameParts("9", "a", "b", "")
	m.BinaryParts(p, p+1, p+2, 3)
	m.BinaryParts(p+3, p+1, p+2, -1)
	var sb strings.Builder
	if err := m.WriteLP(&sb); err != nil {
		t.Fatal(err)
	}
	want := "Binary\n _1a_v0\n _.x_v1\n x1_v2\n _1_v3\n _9_a_b_3__v4\n _a_b__v5\nEnd\n"
	if out := sb.String(); !strings.HasSuffix(out, want) || !strings.HasPrefix(out, "\\ Model: two lines  (6 binaries") {
		t.Errorf("LP output:\n%s", out)
	}
}

// TestWriteLPAllocs: an export allocates a fixed handful of objects (the
// writers and their buffers), however many variables, constraints and
// terms the model has.
func TestWriteLPAllocs(t *testing.T) {
	build := func(n int) *Model {
		m := NewModel("allocs")
		p := m.NameParts("R", "c0.pe_1_2.mux", "v[é]")
		for i := 0; i < n; i++ {
			m.BinaryParts(p, p+1, p+2, i%3-1)
		}
		for i := 0; i+1 < n; i++ {
			m.AddLE("pair", []Term{{Var(i), 1}, {Var(i + 1), -2}}, 1)
		}
		m.AddEQ("wide", Sum(make([]Var, n)...), 1) // one line far past the flush size
		return m
	}
	small, large := build(10), build(20000)
	allocs := func(m *Model) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := m.WriteLP(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(small), allocs(large)
	if a != b || b > 3 {
		t.Errorf("WriteLP allocations: %v on 10 variables, %v on 20000; want the same small constant", a, b)
	}
}

// TestWriteLPBytesPerVariable: the export formats each variable's name
// once into a table, so the bytes it allocates grow with the variables
// and not with the references to them. On the model of TestWriteLPAllocs
// (20,000 composite names, 40,000 references) one export stays within a
// fixed number of bytes per variable: 1.25x the count measured when the
// bound was set, rounded down.
func TestWriteLPBytesPerVariable(t *testing.T) {
	const n, bound = 20000, 49
	m := NewModel("bytes")
	p := m.NameParts("R", "c0.pe_1_2.mux", "v[é]")
	for i := 0; i < n; i++ {
		m.BinaryParts(p, p+1, p+2, i%3-1)
	}
	for i := 0; i+1 < n; i++ {
		m.AddLE("pair", []Term{{Var(i), 1}, {Var(i + 1), -2}}, 1)
	}
	m.AddEQ("wide", Sum(make([]Var, n)...), 1)
	perVar := math.MaxFloat64
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := m.WriteLP(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perVar = min(perVar, float64(after.TotalAlloc-before.TotalAlloc)/n)
	}
	t.Logf("%.2f bytes per variable (bound %v)", perVar, bound)
	if perVar > bound {
		t.Errorf("WriteLP allocates %.2f bytes per variable, want at most %v", perVar, bound)
	}
}

// TestEvalLinearity: Eval is linear in the term list.
func TestEvalLinearity(t *testing.T) {
	prop := func(bits []bool, coefs []int8) bool {
		n := len(bits)
		if n == 0 {
			return true
		}
		m := NewModel("p")
		for i := 0; i < n; i++ {
			m.Binary("v")
		}
		var t1, t2 []Term
		for i, c := range coefs {
			term := Term{Var: Var(i % n), Coef: int32(c)}
			if i%2 == 0 {
				t1 = append(t1, term)
			} else {
				t2 = append(t2, term)
			}
		}
		a := Assignment(bits)
		return a.Eval(append(append([]Term{}, t1...), t2...)) == a.Eval(t1)+a.Eval(t2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	m, _, _, _ := smallModel()
	s := m.Stats()
	if s.Vars != 3 || s.Constraints != 2 {
		t.Errorf("stats %+v", s)
	}
	if s.ByName["pick-one"] != 1 || s.ByName["cap"] != 1 {
		t.Errorf("ByName %v", s.ByName)
	}
	if s.LongestConstraint != 3 || s.Terms != 5 {
		t.Errorf("terms %d longest %d", s.Terms, s.LongestConstraint)
	}
}

func TestStatusMarshalRoundTrip(t *testing.T) {
	for _, s := range []Status{Unknown, Infeasible, Feasible, Optimal} {
		text, err := s.MarshalText()
		if err != nil {
			t.Fatalf("%v: MarshalText: %v", s, err)
		}
		if string(text) != s.String() {
			t.Errorf("%v: text %q != String %q", s, text, s.String())
		}
		var back Status
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("%v: UnmarshalText(%q): %v", s, text, err)
		}
		if back != s {
			t.Errorf("round trip %v -> %q -> %v", s, text, back)
		}
		// Through encoding/json: statuses embed as readable names.
		blob, err := json.Marshal(map[string]Status{"status": s})
		if err != nil {
			t.Fatalf("%v: json: %v", s, err)
		}
		want := `{"status":"` + s.String() + `"}`
		if string(blob) != want {
			t.Errorf("json %s, want %s", blob, want)
		}
		var decoded map[string]Status
		if err := json.Unmarshal(blob, &decoded); err != nil {
			t.Fatalf("%v: json unmarshal: %v", s, err)
		}
		if decoded["status"] != s {
			t.Errorf("json round trip %v -> %s -> %v", s, blob, decoded["status"])
		}
	}
	if _, err := Status(42).MarshalText(); err == nil {
		t.Error("invalid status marshalled")
	}
	var s Status
	if err := s.UnmarshalText([]byte("zorp")); err == nil {
		t.Error("bad status name accepted")
	}
	if _, err := StatusFromString("status(7)"); err == nil {
		t.Error("formatted invalid status accepted")
	}
}

func TestStatusMark(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "1", Feasible: "1", Infeasible: "0", Unknown: "T", Status(9): "T",
	} {
		if got := s.Mark(); got != want {
			t.Errorf("%v.Mark() = %q, want %q", s, got, want)
		}
	}
}
