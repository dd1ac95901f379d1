package arch

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseFabric(t *testing.T) {
	cases := []struct {
		desc string
		want GridSpec
	}{
		{"4x4", GridSpec{Rows: 4, Cols: 4, Homogeneous: true, Contexts: 1}},
		{"8x8:diag", GridSpec{Rows: 8, Cols: 8, Interconnect: Diagonal, Homogeneous: true, Contexts: 1}},
		{"8x8:diag,hetero,c2", GridSpec{Rows: 8, Cols: 8, Interconnect: Diagonal, Contexts: 2}},
		{"16x16:torus,mem4", GridSpec{Rows: 16, Cols: 16, Homogeneous: true, Contexts: 1, Torus: true, MemPortEvery: 4}},
		{"2x6:orth,homo,c3,mem2", GridSpec{Rows: 2, Cols: 6, Interconnect: Orthogonal, Homogeneous: true, Contexts: 3, MemPortEvery: 2}},
	}
	for _, tc := range cases {
		got, err := ParseFabric(tc.desc)
		if err != nil {
			t.Fatalf("%q: %v", tc.desc, err)
		}
		if got != tc.want {
			t.Errorf("%q: %+v, want %+v", tc.desc, got, tc.want)
		}
	}
}

func TestParseFabricErrors(t *testing.T) {
	for _, desc := range []string{
		"", "8", "8x", "x8", "0x4", "4x0", "axb",
		"4x4:bogus", "4x4:c0", "4x4:cx", "4x4:mem0", "4x4:memx",
	} {
		if _, err := ParseFabric(desc); err == nil {
			t.Errorf("%q: expected an error", desc)
		}
	}
}

// TestLoad: the command-line loader builds the default 4x4 from no
// source, a grid from a description and an architecture from an XML
// file, rejects both sources at once, and applies a context override to
// either source.
func TestLoad(t *testing.T) {
	a, err := Load("", "", 0)
	if err != nil || a.Name != "homo-orth-c1-4x4" || a.Contexts != 1 {
		t.Fatalf("default: %v %v", a, err)
	}
	a, err = Load("", "2x2:diag", 0)
	if err != nil || a.Name != "homo-diag-c1-2x2" {
		t.Fatalf("fabric: %v %v", a, err)
	}
	if a, err := Load("", "2x2:diag,c1", 3); err != nil || a.Name != "homo-diag-c3-2x2" || a.Contexts != 3 {
		t.Errorf("fabric override: %v %v", a, err)
	}
	path := filepath.Join(t.TempDir(), "a.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteXML(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if x, err := Load(path, "", 0); err != nil || x.Name != a.Name || x.Contexts != 1 {
		t.Errorf("xml: %v %v", x, err)
	}
	x, err := Load(path, "", 2)
	if err != nil || x.Contexts != 2 {
		t.Fatalf("xml override: %v %v", x, err)
	}
	want, err := Grid(GridSpec{Rows: 2, Cols: 2, Interconnect: Diagonal, Homogeneous: true, Contexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if x.Fingerprint() != want.Fingerprint() {
		t.Error("a c1 XML overridden to 2 contexts differs from the c2 grid")
	}
	for _, bad := range []struct {
		xml, fabric string
		contexts    int
	}{
		{path, "2x2", 0},
		{"", "2x2", -1},
		{"", "bogus", 0},
		{filepath.Join(t.TempDir(), "missing.xml"), "", 0},
	} {
		if _, err := Load(bad.xml, bad.fabric, bad.contexts); err == nil {
			t.Errorf("Load(%q, %q, %d) accepted", bad.xml, bad.fabric, bad.contexts)
		}
	}
}
