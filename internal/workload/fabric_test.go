package workload

import (
	"strings"
	"testing"

	"cgramap/internal/arch"
	"cgramap/internal/mrrg"
)

func TestParseFabrics(t *testing.T) {
	specs, err := ParseFabrics("4x4:diag;8x8:diag,hetero 16x16")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(specs))
	}
	if specs[1].Homogeneous {
		t.Error("second spec should be heterogeneous")
	}
	if specs[2].Rows != 16 || specs[2].Cols != 16 {
		t.Errorf("third spec is %dx%d, want 16x16", specs[2].Rows, specs[2].Cols)
	}
	if _, err := ParseFabrics("  "); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := ParseFabrics("4x4;broken"); err == nil {
		t.Error("bad element accepted")
	}
}

func TestStandardFabricsBuild(t *testing.T) {
	seen := map[string]bool{}
	for _, fs := range StandardFabrics() {
		a, err := arch.Grid(fs)
		if err != nil {
			t.Fatalf("%s: %v", fs.Name(), err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: invalid arch: %v", fs.Name(), err)
		}
		if seen[fs.Name()] {
			t.Fatalf("duplicate standard fabric %s", fs.Name())
		}
		seen[fs.Name()] = true
		if _, err := mrrg.Generate(a); err != nil {
			t.Fatalf("%s: MRRG generation: %v", fs.Name(), err)
		}
	}
	if !seen["homo-diag-c1-8x8"] || len(seen) < 5 {
		t.Errorf("standard ladder %v should scale through 8x8", seen)
	}
}

func TestFabricXMLStable(t *testing.T) {
	// Generated fabrics serialise deterministically — the property the
	// fuzz corpus and CI smoke job rely on.
	fs := arch.GridSpec{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1, MemPortEvery: 4}
	var a, b strings.Builder
	for _, w := range []*strings.Builder{&a, &b} {
		ar, err := arch.Grid(fs)
		if err != nil {
			t.Fatal(err)
		}
		if err := ar.WriteXML(w); err != nil {
			t.Fatal(err)
		}
	}
	if a.String() != b.String() {
		t.Fatal("same fabric spec produced different XML")
	}
}
