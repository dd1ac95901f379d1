// Frontier: chart where a kernel ladder stops mapping onto a fabric.
// The workload generator emits the dot-product ladder (rung n = an
// n-lane unrolled dot product) and the frontier engine bisects rung
// size against the ILP mapper on a tiny heterogeneous 2x2 — whose two
// multiplier cells pin the frontier at n=2 — then re-renders the saved
// JSON report as markdown. The cmd/frontier CLI wraps exactly this
// flow for bigger fabrics.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"cgramap"
)

func main() {
	// A fabric description, exactly as cmd/frontier's -fabrics flag
	// takes it: 2x2, diagonal interconnect, heterogeneous (only the
	// checkerboard cells multiply).
	fabric, err := cgramap.ParseFabric("2x2:diag,hetero")
	if err != nil {
		log.Fatal(err)
	}

	// Probe the dot ladder: rung n needs n multipliers, so feasibility
	// must flip between n=2 (the fabric's multiplier count) and n=3.
	spec := cgramap.FrontierSpec{
		Family:  cgramap.KernelFamily("dot"),
		MinN:    1,
		MaxN:    8,
		Fabrics: []cgramap.GridSpec{fabric},
	}
	front, err := cgramap.RunFrontier(context.Background(), spec, cgramap.FrontierOptions{
		Timeout:  30 * time.Second,
		Progress: os.Stderr,
	})
	if err != nil {
		log.Fatal(err)
	}

	for _, b := range front.Boundaries {
		if b.Bracketed() {
			fmt.Printf("%s @ II=%d: largest mappable rung n=%d, first unmappable n=%d (%d probes)\n",
				b.Fabric, b.II, b.MaxFeasibleN, b.MinInfeasibleN, len(b.Probes))
		}
	}

	// Reports are deterministic for a fixed seed: serialise to JSON,
	// read back, render markdown — what cmd/frontier's run/report
	// subcommands do.
	var blob bytes.Buffer
	if err := front.WriteJSON(&blob); err != nil {
		log.Fatal(err)
	}
	reloaded, err := cgramap.ReadFrontierJSON(&blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := reloaded.WriteMarkdown(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
