package mapper

import (
	"io"
	"runtime"
	"testing"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/mrrg"
)

// formulationCases are the models the formulation benchmarks build: a
// Table 2 cell (add_16 on homo-orth-c1-4x4, 26,464 variables) and the
// largest fabric of the formulate workload (2x2-f on homo-diag-c2-8x8).
var formulationCases = []struct {
	kernel string
	fabric arch.GridSpec
}{
	{"add_16", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Homogeneous: true, Contexts: 1}},
	{"2x2-f", arch.GridSpec{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2}},
}

// formulationInputs builds a case's template and MRRG.
func formulationInputs(b *testing.B, kernel string, spec arch.GridSpec) (*Template, *mrrg.Graph) {
	b.Helper()
	a, err := arch.Grid(spec)
	if err != nil {
		b.Fatal(err)
	}
	mg, err := mrrg.Generate(a)
	if err != nil {
		b.Fatal(err)
	}
	t, err := NewTemplate(bench.MustGet(kernel), a, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return t, mg
}

// BenchmarkStamp times one stamp of each case's model from its template
// and reports it per variable, with the bytes it allocates per variable.
func BenchmarkStamp(b *testing.B) {
	for _, c := range formulationCases {
		t, mg := formulationInputs(b, c.kernel, c.fabric)
		b.Run(c.kernel+"/"+c.fabric.Name(), func(b *testing.B) {
			vars := 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, reason, err := t.BuildModel(mg)
				if err != nil || m == nil {
					b.Fatalf("no model (%q, %v)", reason, err)
				}
				vars = m.NumVars()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * float64(vars)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/var")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/var")
		})
	}
}

// BenchmarkWriteLP times the LP export of each case's model, per
// variable.
func BenchmarkWriteLP(b *testing.B) {
	for _, c := range formulationCases {
		t, mg := formulationInputs(b, c.kernel, c.fabric)
		m, reason, err := t.BuildModel(mg)
		if err != nil || m == nil {
			b.Fatalf("no model (%q, %v)", reason, err)
		}
		b.Run(c.kernel+"/"+c.fabric.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := m.WriteLP(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NumVars()), "ns/var")
		})
	}
}

// BenchmarkNewTemplate times building each case's template from
// scratch (the II-independent analysis, MII bound included), with its
// allocations.
func BenchmarkNewTemplate(b *testing.B) {
	for _, c := range formulationCases {
		a, err := arch.Grid(c.fabric)
		if err != nil {
			b.Fatal(err)
		}
		g := bench.MustGet(c.kernel)
		b.Run(c.kernel+"/"+c.fabric.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewTemplate(g, a, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
