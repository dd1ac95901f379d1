package mapper

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/mrrg"
)

// allModelsLPDigest is the SHA-256 over the LP bytes of every Table 2
// instance (8 fabrics in column order x 19 kernels), each with symmetry
// breaking off and on and under both objectives, 608 models in all.
// Each model is preceded by a line naming it; one the presolve refutes
// contributes its reason instead of LP bytes. Recorded from the
// map-backed formulation the dense node-indexed rows replaced.
const allModelsLPDigest = "4a098f33b7de8eda5ccfbe747261635ef4fe81717c7a8a0f06bfd77f4e5e5c6f"

// TestAllModelsLPDigest pins the exact LP bytes of all Table 2 models
// against one digest, so a change to the stamp or the LP writer that
// alters any variable number, constraint order or name fails here. It
// takes 10-30 s, so it only runs when CGRAMAP_LP_DIGEST_ALL is set
// (CI's artifact-cache equivalence job).
func TestAllModelsLPDigest(t *testing.T) {
	if os.Getenv("CGRAMAP_LP_DIGEST_ALL") == "" {
		t.Skip("set CGRAMAP_LP_DIGEST_ALL=1 to hash every Table 2 model")
	}
	h := sha256.New()
	models := 0
	for _, spec := range arch.PaperArchitectures() {
		a, err := arch.Grid(spec)
		if err != nil {
			t.Fatal(err)
		}
		mg, err := mrrg.Generate(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, kernel := range bench.Names() {
			g := bench.MustGet(kernel)
			for _, sym := range []SymmetryMode{SymmetryOff, SymmetryOn} {
				for _, obj := range []ObjectiveMode{Feasibility, MinimizeRouting} {
					m, reason, err := BuildModel(g, mg, Options{Symmetry: sym, Objective: obj})
					if err != nil {
						t.Fatalf("%s on %s: %v", kernel, spec.Name(), err)
					}
					fmt.Fprintf(h, "%s %s symmetry=%s objective=%d\n", kernel, spec.Name(), sym, obj)
					if m == nil {
						fmt.Fprintf(h, "infeasible: %s\n", reason)
						continue
					}
					if err := m.WriteLP(h); err != nil {
						t.Fatal(err)
					}
					models++
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d models written, digest %s", models, got)
	if got != allModelsLPDigest {
		t.Errorf("all-models LP digest %s, want %s", got, allModelsLPDigest)
	}
}
