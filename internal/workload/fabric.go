package workload

import (
	"fmt"
	"strings"

	"cgramap/internal/arch"
)

// ParseFabrics parses a comma-free list of fabric descriptions (the
// descriptions themselves use commas, so the list separator is ';' or
// whitespace).
func ParseFabrics(list string) ([]arch.GridSpec, error) {
	var specs []arch.GridSpec
	for _, f := range strings.FieldsFunc(list, func(r rune) bool { return r == ';' || r == ' ' }) {
		s, err := arch.ParseFabric(f)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("workload: empty fabric list %q", list)
	}
	return specs, nil
}

// StandardFabrics is the default exploration ladder: the paper's 4x4
// scaled through 8x8 to 16x16, plus a heterogeneous and a memory-poor
// 8x8 variant.
func StandardFabrics() []arch.GridSpec {
	return []arch.GridSpec{
		{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1},
		{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1},
		{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Homogeneous: false, Contexts: 1},
		{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1, MemPortEvery: 4},
		{Rows: 16, Cols: 16, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 1},
	}
}
