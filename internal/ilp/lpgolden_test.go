package ilp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
)

// TestWriteLPGoldenDigests pins the exact LP bytes of a handful of Table
// 2 mapping models by SHA-256. The digests were taken from the
// fmt/regexp writer the append-based one replaced, so any drift in
// naming, sanitising, term layout or constraint order fails here. The
// cases cover both context counts, both interconnects, both fabric
// kinds, the routing objective (coefficients other than ±1), disabled
// pruning and symmetry-breaking ("SE") variables. The last two were
// taken from the map-backed stamp the dense node-indexed rows replaced:
// add_10 with every symmetry group, distinct-ports and the objective
// (20,794 variables), and mult_10 on the 8x8 fabric of the formulate
// benchmark (160,792 variables).
func TestWriteLPGoldenDigests(t *testing.T) {
	cases := []struct {
		kernel string
		spec   arch.GridSpec
		opts   mapper.Options
		digest string
	}{
		{"accum", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Homogeneous: true, Contexts: 1}, mapper.Options{}, "5842864db615316efda30e3f9b49a25d6144401f6ba4126353c3a8399b399dc3"},
		{"2x2-f", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2}, mapper.Options{}, "a26b26eec1afa90cefe374439ff040a6b55cfd6f00f7d33f98d6d551136db7c9"},
		{"mult_10", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: false, Contexts: 2}, mapper.Options{}, "38fb29381eb9d32a60556f43412479a651074392cc323ddf831ba04a9b18b5b6"},
		{"add_10", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Homogeneous: false, Contexts: 1}, mapper.Options{Objective: mapper.MinimizeRouting}, "71a1a031398b0d1038b97172a6b6076e30f1d88e0add945c4a074dd71e34b3c1"},
		{"mac", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1}, mapper.Options{Symmetry: mapper.SymmetryOn}, "91de1da5dedf914dace2181c2c7abbdd9cb7550209cb19e332ed01a10f3cc0a0"},
		{"2x2-f", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Homogeneous: true, Contexts: 2}, mapper.Options{DisablePruning: true}, "8374a6e22aa2e0b4447651b44a3f0597b5810147f0fd779de5390444da78593b"},
		{"add_10", arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1}, mapper.Options{Symmetry: mapper.SymmetryOn, Objective: mapper.MinimizeRouting}, "ba076d8e6aeec1afcc11b25161383b2e1fe0e4015559dcf3206336308d9e1df6"},
		{"mult_10", arch.GridSpec{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2}, mapper.Options{}, "0c6ef6aeae1595e54eba316a4d9eec1c02357820416501ceb87bb0efc57c8061"},
	}
	for _, c := range cases {
		name := c.kernel + "/" + c.spec.Name()
		g, err := bench.Get(c.kernel)
		if err != nil {
			t.Fatal(err)
		}
		a, err := arch.Grid(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		mg, err := mrrg.Generate(a)
		if err != nil {
			t.Fatal(err)
		}
		m, reason, err := mapper.BuildModel(g, mg, c.opts)
		if err != nil || m == nil {
			t.Fatalf("%s: no model (%q, %v)", name, reason, err)
		}
		h := sha256.New()
		if err := m.WriteLP(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
			t.Errorf("%s: LP digest %s, want %s", name, got, c.digest)
		}
	}
}
