package workload

import (
	"fmt"
	"strconv"
	"strings"

	"cgramap/internal/arch"
)

// ParseFabric parses a compact fabric description into the grid it
// names. Descriptions have the form
//
//	RxC[:token,token,...]
//
// with tokens orth|diag, homo|hetero, torus, cN (contexts) and memN
// (memory-port stride). Defaults: orthogonal, homogeneous, c1, mem1.
// Examples: "8x8", "16x16:diag,hetero,c2", "8x8:diag,mem4".
func ParseFabric(desc string) (arch.GridSpec, error) {
	spec := arch.GridSpec{Homogeneous: true, Contexts: 1}
	dims, opts, _ := strings.Cut(desc, ":")
	rs, cs, ok := strings.Cut(dims, "x")
	if !ok {
		return spec, fmt.Errorf("workload: fabric %q: want RxC[:options]", desc)
	}
	var err error
	if spec.Rows, err = strconv.Atoi(rs); err != nil || spec.Rows < 1 {
		return spec, fmt.Errorf("workload: fabric %q: bad row count %q", desc, rs)
	}
	if spec.Cols, err = strconv.Atoi(cs); err != nil || spec.Cols < 1 {
		return spec, fmt.Errorf("workload: fabric %q: bad column count %q", desc, cs)
	}
	if opts == "" {
		return spec, nil
	}
	for _, tok := range strings.Split(opts, ",") {
		switch {
		case tok == "orth":
			spec.Interconnect = arch.Orthogonal
		case tok == "diag":
			spec.Interconnect = arch.Diagonal
		case tok == "homo":
			spec.Homogeneous = true
		case tok == "hetero":
			spec.Homogeneous = false
		case tok == "torus":
			spec.Torus = true
		case strings.HasPrefix(tok, "c"):
			if spec.Contexts, err = strconv.Atoi(tok[1:]); err != nil || spec.Contexts < 1 {
				return spec, fmt.Errorf("workload: fabric %q: bad context token %q", desc, tok)
			}
		case strings.HasPrefix(tok, "mem"):
			if spec.MemPortEvery, err = strconv.Atoi(tok[3:]); err != nil || spec.MemPortEvery < 1 {
				return spec, fmt.Errorf("workload: fabric %q: bad memory token %q", desc, tok)
			}
		default:
			return spec, fmt.Errorf("workload: fabric %q: unknown token %q", desc, tok)
		}
	}
	return spec, nil
}

// ParseFabrics parses a comma-free list of fabric descriptions (the
// descriptions themselves use commas, so the list separator is ';' or
// whitespace).
func ParseFabrics(list string) ([]arch.GridSpec, error) {
	var specs []arch.GridSpec
	for _, f := range strings.FieldsFunc(list, func(r rune) bool { return r == ';' || r == ' ' }) {
		s, err := ParseFabric(f)
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
