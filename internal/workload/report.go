package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON serialises the frontier deterministically: a fixed-seed
// sweep writes byte-identical JSON on every run (probe wall clocks are
// deliberately excluded).
func (f *Frontier) WriteJSON(w io.Writer) error {
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("workload: encoding frontier: %w", err)
	}
	blob = append(blob, '\n')
	if _, err := w.Write(blob); err != nil {
		return fmt.Errorf("workload: writing frontier: %w", err)
	}
	return nil
}

// ReadFrontierJSON parses a frontier report written by WriteJSON.
func ReadFrontierJSON(r io.Reader) (*Frontier, error) {
	var f Frontier
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("workload: decoding frontier: %w", err)
	}
	return &f, nil
}

// WriteMarkdown renders the frontier as a report table. Like WriteJSON
// it is deterministic for a fixed-seed sweep.
func (f *Frontier) WriteMarkdown(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# Mappability frontier — %s ladder\n\n", f.Family)
	fmt.Fprintf(bw, "Kernel sizes probed: n in [%d, %d] (seed %d). Marks: 1 feasible, 0 proven infeasible, T undecided within budget.\n\n",
		f.MinN, f.MaxN, f.Seed)
	fmt.Fprintf(bw, "| fabric | II | max feasible n | min unmappable n | probes |\n")
	fmt.Fprintf(bw, "|---|---|---|---|---|\n")
	for _, b := range f.Boundaries {
		maxN, minN := "-", "-"
		if b.MaxFeasibleN > 0 {
			maxN = fmt.Sprintf("%d", b.MaxFeasibleN)
		}
		if b.MinInfeasibleN > 0 {
			minN = fmt.Sprintf("%d", b.MinInfeasibleN)
			if !b.provenAt(b.MinInfeasibleN) {
				minN += " (T)"
			}
		}
		probes := ""
		for i, p := range b.Probes {
			if i > 0 {
				probes += " "
			}
			probes += fmt.Sprintf("n%d:%s", p.N, p.Status.Mark())
		}
		fmt.Fprintf(bw, "| %s | %d | %s | %s | %s |\n", b.Fabric, b.II, maxN, minN, probes)
	}
	fmt.Fprintln(bw)
	for _, b := range f.Boundaries {
		// A rung that timed out is undecided, never reported as a proof.
		verdict := "undecided within budget"
		if b.provenAt(b.MinInfeasibleN) {
			verdict = "unmappable"
		}
		if b.Bracketed() {
			fmt.Fprintf(bw, "- **%s @ II=%d**: frontier between n=%d (feasible) and n=%d (%s)\n",
				b.Fabric, b.II, b.MaxFeasibleN, b.MinInfeasibleN, verdict)
		} else if b.MaxFeasibleN == 0 && len(b.Probes) > 0 {
			fmt.Fprintf(bw, "- **%s @ II=%d**: %s at the smallest probed size n=%d (%s)\n",
				b.Fabric, b.II, verdict, b.Probes[0].N, b.Probes[0].Reason)
		} else if b.MinInfeasibleN == 0 {
			fmt.Fprintf(bw, "- **%s @ II=%d**: the whole probed range maps (frontier above n=%d)\n",
				b.Fabric, b.II, b.MaxFeasibleN)
		}
	}
	return bw.Flush()
}
