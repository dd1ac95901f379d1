//go:build !race

package mrrg

import (
	"testing"

	"cgramap/internal/arch"
)

// TestAllocationBounds: MRRG generation on the paper's fabrics stays
// within a fixed allocation count per call. Allocation counts are
// deterministic, so the bounds hold on any machine; each is 1.25x the
// count recorded when the bound was set (rounded down). The file is
// compiled out of -race builds; CI enforces the bounds in a step
// without the detector.
func TestAllocationBounds(t *testing.T) {
	for _, tc := range []struct {
		spec arch.GridSpec
		max  float64
	}{
		{arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Orthogonal, Homogeneous: true, Contexts: 1}, 2162},
		{arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: false, Contexts: 2}, 3637},
		{arch.GridSpec{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2}, 13291},
	} {
		t.Run("mrrg-gen/"+tc.spec.Name(), func(t *testing.T) {
			a, err := arch.Grid(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(3, func() {
				if _, err := Generate(a); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%v allocations (bound %v)", got, tc.max)
			if got > tc.max {
				t.Errorf("Generate makes %v allocations, want at most %v", got, tc.max)
			}
		})
	}
}
