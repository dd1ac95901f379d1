package cdcl_test

import (
	"testing"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/solve/cdcl"
)

// mappingCase is one Table 2 style instance: a kernel on a grid fabric
// at the fabric's context count (its II).
type mappingCase struct {
	kernel string
	fabric arch.GridSpec
}

func (c mappingCase) String() string { return c.kernel + "/" + c.fabric.Name() }

// mappingCases are real mapping models of every kind the search meets:
// an II=1 refutation (mac on homo-diag-c1-3x3), a ladder rung that maps
// (tay_4 on hetero-orth at II=2), a cell undecided at the Table 2
// budget (add_14 on hetero-orth-c1-4x4), a quick map (2x2-f) and a model
// whose load and probing outlast a 150 ms cell (weighted_sum).
var mappingCases = []mappingCase{
	{"mac", arch.GridSpec{Rows: 3, Cols: 3, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1}},
	{"tay_4", arch.GridSpec{Rows: 3, Cols: 3, Interconnect: arch.Orthogonal, Contexts: 2}},
	{"add_14", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Contexts: 1}},
	{"2x2-f", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Homogeneous: true, Contexts: 2}},
	{"weighted_sum", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2}},
}

// mappingModel builds a case's ILP with the mapper's default options.
func mappingModel(tb testing.TB, c mappingCase) *ilp.Model {
	tb.Helper()
	a, err := arch.Grid(c.fabric)
	if err != nil {
		tb.Fatal(err)
	}
	mg, err := mrrg.Generate(a)
	if err != nil {
		tb.Fatal(err)
	}
	m, reason, err := mapper.BuildModel(bench.MustGet(c.kernel), mg, mapper.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if m == nil {
		tb.Fatalf("%s: refuted before search: %s", c, reason)
	}
	return m
}

// mappingConflictCap bounds each pinned search: enough conflicts for
// a dozen restarts, few enough that the undecided cases end quickly.
// The pin's reduced runs lower the learnt-clause limit to
// mappingMaxLearnts so that the same budget also reduces the clause
// database several times and reuses the space it frees.
const (
	mappingConflictCap = 2000
	mappingMaxLearnts  = 150
)

// BenchmarkSearchFixedWork times the search that follows loading and
// root probing on each pinned mapping model, unseeded and capped at
// mappingConflictCap conflicts, so that both sides of a comparison do
// the same work: it reports ns per conflict and propagations per second.
func BenchmarkSearchFixedWork(b *testing.B) {
	for _, c := range mappingCases {
		m := mappingModel(b, c)
		b.Run(c.String(), func(b *testing.B) {
			var conflicts, props int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				search, err := cdcl.PrepareSearch(m, 0, mappingConflictCap)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				nc, np := search()
				elapsed += time.Since(start)
				conflicts += nc
				props += np
			}
			if conflicts > 0 {
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(conflicts), "ns/conflict")
			}
			b.ReportMetric(float64(props)/elapsed.Seconds(), "props/s")
		})
	}
}

// BenchmarkLoad times the model loader on a small and a large mapping
// model and reports ns per variable.
func BenchmarkLoad(b *testing.B) {
	for _, c := range []mappingCase{
		{"add_16", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Homogeneous: true, Contexts: 1}},
		{"weighted_sum", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2}},
	} {
		m := mappingModel(b, c)
		b.Run(c.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cdcl.Load(m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NumVars()), "ns/var")
		})
	}
}
