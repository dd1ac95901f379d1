package arch

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// DefaultFabric is the grid Load builds when it is given neither an XML
// file nor a fabric description: the paper's 4x4, orthogonal,
// homogeneous, one context.
const DefaultFabric = "4x4"

// ParseFabric parses a compact fabric description into the grid it
// names. Descriptions have the form
//
//	RxC[:token,token,...]
//
// with tokens orth|diag, homo|hetero, torus, cN (contexts) and memN
// (memory-port stride). Defaults: orthogonal, homogeneous, c1, mem1.
// Examples: "8x8", "16x16:diag,hetero,c2", "8x8:diag,mem4".
func ParseFabric(desc string) (GridSpec, error) {
	spec := GridSpec{Homogeneous: true, Contexts: 1}
	dims, opts, _ := strings.Cut(desc, ":")
	rs, cs, ok := strings.Cut(dims, "x")
	if !ok {
		return spec, fmt.Errorf("arch: fabric %q: want RxC[:options]", desc)
	}
	var err error
	if spec.Rows, err = strconv.Atoi(rs); err != nil || spec.Rows < 1 {
		return spec, fmt.Errorf("arch: fabric %q: bad row count %q", desc, rs)
	}
	if spec.Cols, err = strconv.Atoi(cs); err != nil || spec.Cols < 1 {
		return spec, fmt.Errorf("arch: fabric %q: bad column count %q", desc, cs)
	}
	if opts == "" {
		return spec, nil
	}
	for _, tok := range strings.Split(opts, ",") {
		switch {
		case tok == "orth":
			spec.Interconnect = Orthogonal
		case tok == "diag":
			spec.Interconnect = Diagonal
		case tok == "homo":
			spec.Homogeneous = true
		case tok == "hetero":
			spec.Homogeneous = false
		case tok == "torus":
			spec.Torus = true
		case strings.HasPrefix(tok, "c"):
			if spec.Contexts, err = strconv.Atoi(tok[1:]); err != nil || spec.Contexts < 1 {
				return spec, fmt.Errorf("arch: fabric %q: bad context token %q", desc, tok)
			}
		case strings.HasPrefix(tok, "mem"):
			if spec.MemPortEvery, err = strconv.Atoi(tok[3:]); err != nil || spec.MemPortEvery < 1 {
				return spec, fmt.Errorf("arch: fabric %q: bad memory token %q", desc, tok)
			}
		default:
			return spec, fmt.Errorf("arch: fabric %q: unknown token %q", desc, tok)
		}
	}
	return spec, nil
}

// Load is the command-line architecture source: the XML description at
// xmlPath, or the grid a fabric description names (DefaultFabric when
// both are empty); naming both is an error. contexts, when > 0,
// overrides the architecture's own context count, for an XML file and a
// description alike.
func Load(xmlPath, fabric string, contexts int) (*Arch, error) {
	if contexts < 0 {
		return nil, fmt.Errorf("arch: context count %d is negative", contexts)
	}
	if xmlPath == "" {
		if fabric == "" {
			fabric = DefaultFabric
		}
		spec, err := ParseFabric(fabric)
		if err != nil {
			return nil, err
		}
		if contexts > 0 {
			spec.Contexts = contexts
		}
		return Grid(spec)
	}
	if fabric != "" {
		return nil, fmt.Errorf("arch: specify an XML file or a fabric description, not both")
	}
	f, err := os.Open(xmlPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := ReadXML(f)
	if err != nil {
		return nil, err
	}
	if contexts > 0 {
		a.Contexts = contexts
	}
	return a, nil
}
