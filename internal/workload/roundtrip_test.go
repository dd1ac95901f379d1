package workload

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cgramap/internal/arch"
	"cgramap/internal/dfg"
)

// quickSpec is the quick-check generator for DFGSpec: arbitrary seeds,
// small-but-varied shapes, always legal.
func quickSpec(rng *rand.Rand) DFGSpec {
	ops := 1 + rng.Intn(24)
	spec := DFGSpec{
		Seed:       rng.Int63(),
		Ops:        ops,
		Depth:      1 + rng.Intn(ops),
		MaxFanout:  1 + rng.Intn(4),
		MulDensity: float64(rng.Intn(101)) / 100,
		Inputs:     1 + rng.Intn(6),
		Outputs:    1 + rng.Intn(4),
	}
	if rng.Intn(2) == 0 {
		spec.Loads = rng.Intn(ops + 1)
		spec.Stores = rng.Intn(3)
	}
	return spec
}

// TestGeneratedDFGRoundTrip is the generator's core contract as a
// property: for every legal spec, the generated graph formats to text
// that parses back to a graph formatting identically — and generating
// twice from the same spec is byte-identical.
func TestGeneratedDFGRoundTrip(t *testing.T) {
	property := func(spec DFGSpec) bool {
		g, err := GenerateDFG(spec)
		if err != nil {
			t.Logf("%+v: generate: %v", spec, err)
			return false
		}
		text := g.FormatString()
		back, err := dfg.ParseString(text)
		if err != nil {
			t.Logf("%+v: parse back: %v", spec, err)
			return false
		}
		if back.FormatString() != text {
			t.Logf("%+v: reformat differs", spec)
			return false
		}
		again, err := GenerateDFG(spec)
		if err != nil || again.FormatString() != text {
			t.Logf("%+v: regeneration differs", spec)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(quickSpec(rng))
		},
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratedFabricRoundTrip: every generated fabric serialises to
// XML that reads back and re-serialises byte-identically, preserving
// the architecture fingerprint.
func TestGeneratedFabricRoundTrip(t *testing.T) {
	property := func(spec arch.GridSpec) bool {
		a, err := arch.Grid(spec)
		if err != nil {
			t.Logf("%s: build: %v", spec.Name(), err)
			return false
		}
		var first strings.Builder
		if err := a.WriteXML(&first); err != nil {
			t.Logf("%s: write: %v", spec.Name(), err)
			return false
		}
		back, err := arch.ParseXMLString(first.String())
		if err != nil {
			t.Logf("%s: read back: %v", spec.Name(), err)
			return false
		}
		var second strings.Builder
		if err := back.WriteXML(&second); err != nil {
			t.Logf("%s: rewrite: %v", spec.Name(), err)
			return false
		}
		if first.String() != second.String() {
			t.Logf("%s: XML round trip differs", spec.Name())
			return false
		}
		if a.Fingerprint() != back.Fingerprint() {
			t.Logf("%s: fingerprint changed across round trip", spec.Name())
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 30,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			spec := arch.GridSpec{
				Rows:        1 + rng.Intn(8),
				Cols:        1 + rng.Intn(8),
				Homogeneous: rng.Intn(2) == 0,
				Contexts:    1 + rng.Intn(3),
				Torus:       rng.Intn(2) == 0,
			}
			if rng.Intn(2) == 0 {
				spec.Interconnect = arch.Diagonal
			}
			if rng.Intn(3) == 0 {
				spec.MemPortEvery = 1 + rng.Intn(spec.Rows+2)
			}
			vals[0] = reflect.ValueOf(spec)
		},
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
