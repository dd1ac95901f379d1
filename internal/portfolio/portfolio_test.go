package portfolio

import (
	"context"
	"strings"
	"testing"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
	"cgramap/internal/faultinject"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
)

// spec2x2 is a tiny diagonal grid with two contexts — 2x2-f's minimum
// initiation interval is 2, and every engine decides it there quickly.
var spec2x2 = arch.GridSpec{Rows: 2, Cols: 2, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: 2}

func instance(t testing.TB, name string, spec arch.GridSpec) (*dfg.Graph, *mrrg.Graph) {
	t.Helper()
	g, err := bench.Get(name)
	if err != nil {
		t.Fatalf("bench %s: %v", name, err)
	}
	a, err := arch.Grid(spec)
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	mg, err := mrrg.Generate(a)
	if err != nil {
		t.Fatalf("mrrg: %v", err)
	}
	return g, mg
}

func report(t *testing.T, res *Result, name string) Report {
	t.Helper()
	for _, r := range res.Reports {
		if r.Strategy == name {
			return r
		}
	}
	t.Fatalf("no report for strategy %q in %+v", name, res.Reports)
	return Report{}
}

// TestRaceWinnerAndLoserCancellation stalls every strategy except the
// default CDCL racer and checks that the winner's verified answer comes
// back while all losers observe cancellation.
func TestRaceWinnerAndLoserCancellation(t *testing.T) {
	g, mg := instance(t, "2x2-f", spec2x2)
	res, err := Map(context.Background(), g, mg, Options{
		Timeout:         30 * time.Second,
		Attempts:        1,
		DisableFallback: true, // keep the heuristic out of the race
		WrapSolver: func(name string, s ilp.Solver) ilp.Solver {
			if name == "cdcl" {
				return s
			}
			return faultinject.New(s, faultinject.Options{Faults: faultinject.Delay, DelayFor: time.Hour})
		},
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if !res.Feasible() {
		t.Fatalf("status = %v (%s), want feasible", res.Status, res.Reason)
	}
	if res.Winner != "cdcl" || !res.Proven {
		t.Fatalf("winner = %q proven=%v, want cdcl/proven", res.Winner, res.Proven)
	}
	if res.Mapping == nil {
		t.Fatal("feasible result without mapping")
	}
	if err := res.Mapping.Verify(); err != nil {
		t.Fatalf("winner mapping fails verification: %v", err)
	}
	if !report(t, res, "cdcl").Winner {
		t.Error("cdcl report not marked winner")
	}
	for _, loser := range []string{"cdcl-rand1", "bb"} {
		if r := report(t, res, loser); !r.Cancelled {
			t.Errorf("loser %s did not observe cancellation: %+v", loser, r)
		}
	}
}

// TestPanicContainment makes every exact engine panic on every attempt:
// the orchestrator must retry per its budget, attach recovered stacks,
// and come back with Unknown — never crash.
func TestPanicContainment(t *testing.T) {
	g, mg := instance(t, "2x2-f", spec2x2)
	res, err := Map(context.Background(), g, mg, Options{
		Timeout:         30 * time.Second,
		Attempts:        3,
		Backoff:         time.Millisecond,
		DisableFallback: true,
		WrapSolver: func(_ string, s ilp.Solver) ilp.Solver {
			return faultinject.New(s, faultinject.Options{Faults: faultinject.Panic})
		},
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if res.Status != ilp.Unknown || res.Winner != "" {
		t.Fatalf("status=%v winner=%q, want unknown/no winner", res.Status, res.Winner)
	}
	for _, name := range []string{"cdcl", "cdcl-rand1", "bb"} {
		r := report(t, res, name)
		if r.Panics != 3 || r.Attempts != 3 {
			t.Errorf("%s: panics=%d attempts=%d, want 3/3", name, r.Panics, r.Attempts)
		}
		if !strings.Contains(r.LastPanic, "injected panic") {
			t.Errorf("%s: LastPanic missing recovered value: %q", name, r.LastPanic)
		}
	}
	if !strings.Contains(res.Reason, "panicked") {
		t.Errorf("Reason lacks panic post-mortem: %q", res.Reason)
	}
}

// TestHeuristicFallback breaks every exact engine and checks the
// degradation path: the annealing witness is returned, clearly labelled
// as non-provable.
func TestHeuristicFallback(t *testing.T) {
	g, mg := instance(t, "2x2-f", spec2x2)
	res, err := Map(context.Background(), g, mg, Options{
		Timeout:  60 * time.Second,
		Attempts: 2,
		Backoff:  time.Millisecond,
		WrapSolver: func(_ string, s ilp.Solver) ilp.Solver {
			return faultinject.New(s, faultinject.Options{Faults: faultinject.Panic})
		},
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if !res.Feasible() {
		t.Fatalf("status = %v (%s), want heuristic feasible", res.Status, res.Reason)
	}
	if res.Winner != "anneal" || res.Proven || !res.Degraded() {
		t.Fatalf("winner=%q proven=%v degraded=%v, want anneal/unproven/degraded", res.Winner, res.Proven, res.Degraded())
	}
	if !strings.Contains(res.Reason, "heuristic") {
		t.Errorf("heuristic win not labelled: Reason = %q", res.Reason)
	}
	if err := res.Mapping.Verify(); err != nil {
		t.Fatalf("heuristic mapping fails verification: %v", err)
	}
}

// TestInfeasibilityProofWins maps a kernel that cannot fit: an exact
// strategy must win with a proof while the heuristic (which can never
// prove absence) loses.
func TestInfeasibilityProofWins(t *testing.T) {
	g, mg := instance(t, "add_10", spec2x2)
	res, err := Map(context.Background(), g, mg, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if res.Status != ilp.Infeasible {
		t.Fatalf("status = %v (%s), want infeasible", res.Status, res.Reason)
	}
	if res.Winner == "anneal" || !res.Proven {
		t.Fatalf("infeasibility claimed by %q (proven=%v)", res.Winner, res.Proven)
	}
}

// TestRetryAfterTransientFaults fires a fault on roughly half the solver
// calls: the backoff-and-reseed retry loop must still converge on the
// right answer.
func TestRetryAfterTransientFaults(t *testing.T) {
	g, mg := instance(t, "2x2-f", spec2x2)
	res, err := Map(context.Background(), g, mg, Options{
		Timeout:  60 * time.Second,
		Attempts: 4,
		Backoff:  time.Millisecond,
		WrapSolver: func(_ string, s ilp.Solver) ilp.Solver {
			return faultinject.New(s, faultinject.Options{
				Faults: faultinject.Panic | faultinject.CorruptFlip,
				Prob:   0.5,
			})
		},
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if !res.Feasible() {
		t.Fatalf("status = %v (%s), want feasible despite transient faults", res.Status, res.Reason)
	}
	if err := res.Mapping.Verify(); err != nil {
		t.Fatalf("returned mapping fails verification: %v", err)
	}
}

// TestMapAutoThroughPortfolio checks the MapWith seam: MapAuto driven by
// the portfolio must find the same minimal II as the direct mapper.
func TestMapAutoThroughPortfolio(t *testing.T) {
	g, err := bench.Get("2x2-f")
	if err != nil {
		t.Fatal(err)
	}
	a, err := arch.Grid(spec2x2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := mapper.MapAuto(context.Background(), g, a, 4, mapper.Options{})
	if err != nil {
		t.Fatalf("direct MapAuto: %v", err)
	}
	ported, err := mapper.MapAuto(context.Background(), g, a, 4, mapper.Options{
		MapWith: MapFunc(Options{Timeout: 30 * time.Second}),
	})
	if err != nil {
		t.Fatalf("portfolio MapAuto: %v", err)
	}
	if !direct.Feasible() || !ported.Feasible() {
		t.Fatalf("feasibility: direct=%v portfolio=%v", direct.Status, ported.Status)
	}
	if direct.II != ported.II {
		t.Fatalf("II mismatch: direct=%d portfolio=%d", direct.II, ported.II)
	}
	if err := ported.Mapping.Verify(); err != nil {
		t.Fatalf("portfolio MapAuto mapping invalid: %v", err)
	}
}

// TestPortfolioDeadline bounds a race where every strategy stalls: the
// orchestrator must give up at its deadline with Unknown, not hang.
func TestPortfolioDeadline(t *testing.T) {
	g, mg := instance(t, "2x2-f", spec2x2)
	start := time.Now()
	res, err := Map(context.Background(), g, mg, Options{
		Timeout:         200 * time.Millisecond,
		Attempts:        1,
		DisableFallback: true,
		WrapSolver: func(_ string, s ilp.Solver) ilp.Solver {
			return faultinject.New(s, faultinject.Options{Faults: faultinject.Delay, DelayFor: time.Hour})
		},
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if res.Status != ilp.Unknown {
		t.Fatalf("status = %v, want unknown at deadline", res.Status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("race outlived its deadline: %v", elapsed)
	}
}

// TestKnobsSelectStrategies: the speed knobs in Options.Mapper decide
// which CDCL variants race.
func TestKnobsSelectStrategies(t *testing.T) {
	g, mg := instance(t, "2x2-f", spec2x2)
	names := func(mo mapper.Options) string {
		o := Options{Mapper: mo, DisableBB: true, DisableFallback: true}
		o.fill()
		var out []string
		for _, st := range strategies(g, mg, o) {
			out = append(out, st.name)
		}
		return strings.Join(out, ",")
	}
	if got := names(mapper.Options{}); got != "cdcl,cdcl-rand1" {
		t.Errorf("default strategies = %s", got)
	}
	if got := names(mapper.Options{Workers: 2}); got != "cdcl,cdcl-rand1,cdcl-par" {
		t.Errorf("strategies with Workers = %s", got)
	}
}
