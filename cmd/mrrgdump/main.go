// Command mrrgdump generates the MRRG of an architecture and prints its
// statistics, node listing, or Graphviz DOT rendering — handy for
// inspecting how primitives expand (the paper's Figs. 1–4).
//
// The architecture comes from -arch (XML description) or -fabric (a grid
// description such as 8x8:diag,hetero,c2; default 4x4). -contexts
// accepts a comma-separated II list (e.g. -contexts 1,2,4,2), each entry
// overriding the architecture's own context count (0 keeps it): every
// II is dumped in order, and generation routes through the MRRG store of
// mapper.ArtifactCache, so a repeated II is served from memory. -stats
// prints that store's hit/miss counters afterwards.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"cgramap/internal/arch"
	"cgramap/internal/mapper"
)

func main() {
	var (
		archFile = flag.String("arch", "", "architecture XML file (excludes -fabric)")
		fabric   = flag.String("fabric", "", "grid description RxC[:orth|diag,homo|hetero,torus,cN,memN] (default "+arch.DefaultFabric+" without -arch)")
		contexts = flag.String("contexts", "0", "execution contexts: a single II or a comma-separated list (repeats hit the MRRG cache); 0 = the architecture's own count")
		dot      = flag.Bool("dot", false, "emit Graphviz DOT instead of statistics")
		nodes    = flag.Bool("nodes", false, "list every node")
		stats    = flag.Bool("stats", false, "print MRRG cache hit/miss counts after dumping")
		syms     = flag.Bool("symmetries", false, "print the fabric's verified automorphism generators and primitive orbits")
	)
	flag.Parse()
	if err := run(*archFile, *fabric, *contexts, *dot, *nodes, *stats, *syms); err != nil {
		fmt.Fprintln(os.Stderr, "mrrgdump:", err)
		os.Exit(1)
	}
}

func run(archFile, fabric, contexts string, dot, nodes, stats, syms bool) error {
	iis, err := parseContexts(contexts)
	if err != nil {
		return err
	}
	base, err := arch.Load(archFile, fabric, 0)
	if err != nil {
		return err
	}
	if syms {
		printSymmetries(base)
	}
	cache := mapper.NewArtifactCache(len(iis))
	for _, ii := range iis {
		a := *base
		if ii > 0 {
			a.Contexts = ii
		}
		g, err := cache.MRRG(&a)
		if err != nil {
			return err
		}
		if dot {
			if err := g.WriteDOT(os.Stdout); err != nil {
				return err
			}
			continue
		}
		st := g.Stats()
		as := a.Stats()
		fmt.Printf("architecture %s: %d FUs, %d muxes, %d regs, %d wires, %d connections\n",
			a.Name, as.FUs, as.Muxes, as.Regs, as.Wires, as.Conns)
		fmt.Printf("MRRG (%d contexts): %d nodes (%d FuncUnit, %d RouteRes), %d edges, %d cross-context\n",
			g.Contexts, st.Nodes, st.FuncUnits, st.RouteRes, st.Edges, st.CrossContextEdges)
		if nodes {
			for _, n := range g.Nodes {
				fmt.Printf("  %-40s %-6s ctx=%d fanin=%d fanout=%d\n",
					n.Name, n.Kind, n.Context, len(n.Fanins), len(n.Fanouts))
			}
		}
	}
	if stats {
		cs := cache.Stats().MRRG
		fmt.Printf("MRRG cache: %d hits, %d misses, %d entries (~%d bytes)\n",
			cs.Hits, cs.Misses, cs.Entries, cs.Bytes)
	}
	return nil
}

// printSymmetries reports the fabric's verified automorphism group: the
// generator names that survived netlist verification and the primitive
// orbits of the generated group (a size histogram; singleton orbits —
// primitives fixed by every generator — are summarised as a count).
func printSymmetries(a *arch.Arch) {
	s := arch.Discover(a)
	if s.Trivial() {
		fmt.Printf("symmetries %s: none verified\n", a.Name)
		return
	}
	names := make([]string, len(s.Gens))
	for i, g := range s.Gens {
		names[i] = g.Name
	}
	orbits := s.Orbits()
	sizes := make(map[int]int)
	moved := 0
	for _, o := range orbits {
		sizes[len(o)]++
		moved += len(o)
	}
	var sizeKeys []int
	for sz := range sizes {
		sizeKeys = append(sizeKeys, sz)
	}
	sort.Ints(sizeKeys)
	var hist []string
	for _, sz := range sizeKeys {
		hist = append(hist, fmt.Sprintf("%dx size %d", sizes[sz], sz))
	}
	fmt.Printf("symmetries %s: %d generators (%s)\n", a.Name, len(s.Gens), strings.Join(names, ", "))
	fmt.Printf("  %d non-trivial orbits (%s), %d primitives moved, %d fixed\n",
		len(orbits), strings.Join(hist, ", "), moved, len(a.Prims)-moved)
}

// parseContexts splits the -contexts value into an II list.
func parseContexts(s string) ([]int, error) {
	var iis []int
	for _, tok := range strings.Split(s, ",") {
		ii, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || ii < 0 {
			return nil, fmt.Errorf("bad context count %q", tok)
		}
		iis = append(iis, ii)
	}
	return iis, nil
}
