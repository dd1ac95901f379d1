package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/exper"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
)

//go:embed testdata/answers.json
var committedAnswers []byte

// answerKey holds proven answers, produced by this repository's own
// solver at a generous budget (never copied from the paper, whose
// exp_4 topology differs). It stores proofs only: an instance undecided
// when the key was generated is absent, never a "T".
type answerKey struct {
	GeneratedBy string `json:"generated_by"`
	// Table2 maps "kernel/fabric" to the cell's proven mark, "1" or "0".
	Table2 map[string]string `json:"table2"`
	// MinII maps "kernel/fabric" to the ladder's proven minimal II, or 0
	// when no II up to miniiMaxII maps it.
	MinII map[string]int `json:"minii"`
}

// answerBudget is the per-instance budget the answer key is generated at.
const answerBudget = 10 * time.Second

// loadAnswers decodes the committed answer key.
func loadAnswers() (*answerKey, error) {
	var key answerKey
	if err := json.Unmarshal(committedAnswers, &key); err != nil {
		return nil, fmt.Errorf("answer key: %w", err)
	}
	return &key, nil
}

func instance(kernel, fabric string) string { return kernel + "/" + fabric }

// checkCell reports a Table 2 verdict that contradicts the key.
func (k *answerKey) checkCell(kernel, fabric string, s ilp.Status) error {
	want, ok := k.Table2[instance(kernel, fabric)]
	if !ok || s == ilp.Unknown || s.Mark() == want {
		return nil
	}
	return fmt.Errorf("%s on %s: verdict %s contradicts the answer key's %s", kernel, fabric, s.Mark(), want)
}

// ladderOutcome is what an II ladder proved: ii is the II found (0 for
// none); decided means every lower rung was proven infeasible, so ii is
// the proven minimum (or, with ii 0, no II up to the bound maps).
type ladderOutcome struct {
	ii      int
	decided bool
}

// outcomeOf reads a MapAuto result the way the benchmark scores it.
func outcomeOf(res *mapper.AutoResult) ladderOutcome {
	if !res.Feasible() {
		return ladderOutcome{decided: res.Status == ilp.Infeasible}
	}
	for _, s := range res.Tried[:len(res.Tried)-1] {
		if s != ilp.Infeasible {
			return ladderOutcome{ii: res.II}
		}
	}
	return ladderOutcome{ii: res.II, decided: true}
}

// checkLadder reports a ladder outcome that contradicts the key: a
// different proven minimum, or a feasible II below it.
func (k *answerKey) checkLadder(kernel, fabric string, o ladderOutcome) error {
	want, ok := k.MinII[instance(kernel, fabric)]
	if !ok {
		return nil
	}
	bad := o.decided && o.ii != want ||
		o.ii > 0 && (want == 0 || o.ii < want)
	if !bad {
		return nil
	}
	return fmt.Errorf("%s on %s: minimal II %d (proven %t) contradicts the answer key's %d", kernel, fabric, o.ii, o.decided, want)
}

// generateAnswers decides the Table 2 grid and the paper-kernel ladders
// at answerBudget per instance and writes the proofs to path.
func generateAnswers(path string) error {
	key := answerKey{
		GeneratedBy: fmt.Sprintf("bash cmd/cgrabench/run.sh --write-answers %s (%v per instance)", path, answerBudget),
		Table2:      map[string]string{},
		MinII:       map[string]int{},
	}
	sweep, err := exper.RunSweep(context.Background(), exper.SweepOptions{
		Timeout: answerBudget, Mapper: mapper.Options{Workers: 1}, Progress: os.Stderr})
	if err != nil {
		return err
	}
	for b, row := range sweep.Cells {
		for a, c := range row {
			if c.Status != ilp.Unknown {
				key.Table2[instance(sweep.Benchmarks[b], sweep.Specs[a].Name())] = c.Mark()
			}
		}
	}
	for _, spec := range miniiFabrics {
		a, err := arch.Grid(spec)
		if err != nil {
			return err
		}
		for _, name := range bench.Names() {
			g, err := bench.Get(name)
			if err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), answerBudget)
			res, err := mapper.MapAuto(ctx, g, a, miniiMaxII, mapper.Options{Workers: 1})
			cancel()
			if err != nil {
				return err
			}
			o := outcomeOf(res)
			fmt.Fprintf(os.Stderr, "%-14s %-20s II %d tried %v decided %t\n", name, spec.Name(), res.II, res.Tried, o.decided)
			if o.decided {
				key.MinII[instance(name, spec.Name())] = o.ii
			}
		}
	}
	blob, err := json.MarshalIndent(key, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// isFailure reports whether a sweep cell's reason records a contained
// panic or mapper error rather than a verdict.
func isFailure(reason string) bool {
	return strings.HasPrefix(reason, "mapper panicked") || strings.HasPrefix(reason, "mapper failed")
}
