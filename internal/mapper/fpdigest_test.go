package mapper

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"testing"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/mrrg"
)

// allModelsFingerprintDigest is the SHA-256 over Model.Fingerprint of
// the same 608 models as allModelsLPDigest (8 fabrics x 19 kernels x
// symmetry off/on x both objectives), each preceded by a line naming
// it; a model the presolve refutes contributes its reason instead. A
// fingerprint also covers the branch priorities and phase hints, which
// the LP bytes do not. Recorded from the string-backed model storage.
const allModelsFingerprintDigest = "a6038f1bca9dffc4928e97ee8a17524cd19a5a212b20c8fd02efa370637995fd"

// TestAllModelsFingerprintDigest pins the complete content of every
// Table 2 model, hints included, against one digest. Like
// TestAllModelsLPDigest it runs only when CGRAMAP_LP_DIGEST_ALL is set.
func TestAllModelsFingerprintDigest(t *testing.T) {
	if os.Getenv("CGRAMAP_LP_DIGEST_ALL") == "" {
		t.Skip("set CGRAMAP_LP_DIGEST_ALL=1 to fingerprint every Table 2 model")
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
					io.WriteString(h, m.Fingerprint()+"\n")
					models++
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d models fingerprinted, digest %s", models, got)
	if got != allModelsFingerprintDigest {
		t.Errorf("all-models fingerprint digest %s, want %s", got, allModelsFingerprintDigest)
	}
}
