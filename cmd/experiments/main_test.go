package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors: a missing or unknown subcommand, an unknown flag
// (ablate registers only -timeout and -benchmarks; -engine is gone
// everywhere) and a bad flag value are errors reported before anything
// runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"ablate", "-daemon", "http://127.0.0.1:1", "-timeout", "200ms", "-benchmarks", "accum"},
		{"ablate", "-engine", "zorp", "-benchmarks", "accum"},
		{"ablate", "-symmetry", "sideways", "-benchmarks", "accum"},
		{"ablate", "-benchmarks", "nosuchkernel"},
		{"table2", "-engine", "cdcl", "-benchmarks", "accum"},
		{"table2", "-symmetry", "sideways", "-benchmarks", "accum"},
		{"fig8", "-benchmarks", "nosuchkernel"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%q accepted", args)
		}
		if out.Len() != 0 {
			t.Errorf("%q printed before failing:\n%s", args, out.String())
		}
	}
}

func TestTable1(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"table1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "accum") {
		t.Errorf("table 1 lacks the accum kernel:\n%s", out.String())
	}
}
