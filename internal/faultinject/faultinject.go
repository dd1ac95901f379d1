// Package faultinject provides an ilp.Solver decorator that injects
// configurable faults — delays, spurious panics, premature cancellation,
// and corrupted assignments (bit-flipped or truncated solutions) — into
// an otherwise-correct engine.
//
// It exists to prove, end to end, that everything above the solver seam
// degrades instead of breaking: the mapper's decode/Verify gate must
// reject every corrupted solution, and the experiment and frontier
// sweeps must keep going past a wedged or crashing instance. The
// injector is safe for concurrent use (speculative II lanes and the job
// server's workers solve on parallel goroutines).
package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cgramap/internal/ilp"
)

// Fault is a bit set of fault classes to inject.
type Fault uint

const (
	// Delay sleeps before delegating to the inner solver (respecting
	// context cancellation), simulating a stalled engine.
	Delay Fault = 1 << iota
	// Panic panics instead of solving, simulating an engine bug.
	Panic
	// CancelEarly runs the inner solver under an already-cancelled
	// context, simulating a premature deadline.
	CancelEarly
	// CorruptFlip flips random bits of a feasible assignment.
	CorruptFlip
	// CorruptTruncate drops trailing entries of a feasible assignment.
	CorruptTruncate
)

// names lists every fault with its diagnostic label, in bit order.
var names = []struct {
	f    Fault
	name string
}{
	{Delay, "delay"},
	{Panic, "panic"},
	{CancelEarly, "cancel-early"},
	{CorruptFlip, "corrupt-flip"},
	{CorruptTruncate, "corrupt-truncate"},
}

// String names the fault set.
func (f Fault) String() string {
	s := ""
	for _, n := range names {
		if f&n.f != 0 {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	if s == "" {
		return "none"
	}
	return s
}

// Options configures an Injector.
type Options struct {
	// Faults enables fault classes.
	Faults Fault
	// Prob is the per-call probability that each enabled fault fires
	// (0 defaults to 1: always fire).
	Prob float64
	// Seed seeds the fault lottery (0 selects a fixed default).
	Seed int64
	// DelayFor is the Delay duration (0 defaults to 50ms).
	DelayFor time.Duration
	// MaxFlips bounds CorruptFlip's bit flips per solution (0 defaults
	// to 4; at least one bit is always flipped when the fault fires).
	MaxFlips int
}

func (o *Options) fill() {
	if o.Prob == 0 {
		o.Prob = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.DelayFor == 0 {
		o.DelayFor = 50 * time.Millisecond
	}
	if o.MaxFlips == 0 {
		o.MaxFlips = 4
	}
}

// Injector decorates an ilp.Solver with fault injection. It implements
// ilp.Solver and is safe for concurrent use.
type Injector struct {
	inner ilp.Solver
	opts  Options

	mu    sync.Mutex
	rng   *rand.Rand
	calls int64
	fired map[string]int64
}

var _ ilp.Solver = (*Injector)(nil)

// New wraps inner with the configured faults.
func New(inner ilp.Solver, opts Options) *Injector {
	opts.fill()
	return &Injector{
		inner: inner,
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
		fired: make(map[string]int64),
	}
}

// Calls returns how many Solve calls the injector has seen.
func (in *Injector) Calls() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls
}

// Fired returns a copy of the per-fault fire counts, keyed by fault name.
func (in *Injector) Fired() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.fired))
	for k, v := range in.fired {
		out[k] = v
	}
	return out
}

// roll decides which enabled faults fire for one call and hands back a
// private rng stream for corruption choices.
func (in *Injector) roll() (fired Fault, rng *rand.Rand) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls++
	for _, n := range names {
		if in.opts.Faults&n.f == 0 {
			continue
		}
		if in.rng.Float64() < in.opts.Prob {
			fired |= n.f
			in.fired[n.name]++
		}
	}
	return fired, rand.New(rand.NewSource(in.rng.Int63()))
}

// Solve injects the rolled faults around the inner engine's Solve.
func (in *Injector) Solve(ctx context.Context, m *ilp.Model) (*ilp.Solution, error) {
	fired, rng := in.roll()

	if fired&Delay != 0 {
		t := time.NewTimer(in.opts.DelayFor)
		select {
		case <-ctx.Done():
			t.Stop()
			return &ilp.Solution{Status: ilp.Unknown, Stats: map[string]int64{"cancelled": 1}}, nil
		case <-t.C:
		}
	}
	if fired&Panic != 0 {
		panic(fmt.Sprintf("faultinject: injected panic (model %s)", m.Name))
	}
	if fired&CancelEarly != 0 {
		early, cancel := context.WithCancel(ctx)
		cancel()
		ctx = early
	}

	sol, err := in.inner.Solve(ctx, m)
	if err != nil || sol == nil || sol.Assignment == nil {
		return sol, err
	}
	if fired&(CorruptFlip|CorruptTruncate) != 0 {
		// Corrupt a copy so the inner engine's own state stays intact.
		corrupted := *sol
		corrupted.Assignment = Corrupt(sol.Assignment, fired, rng, in.opts.MaxFlips)
		return &corrupted, nil
	}
	return sol, nil
}

// Corrupt returns a corrupted copy of a: CorruptFlip flips 1..maxFlips
// random bits, CorruptTruncate drops at least one trailing entry. Other
// bits of mode are ignored. The input assignment is never modified.
func Corrupt(a ilp.Assignment, mode Fault, rng *rand.Rand, maxFlips int) ilp.Assignment {
	out := make(ilp.Assignment, len(a))
	copy(out, a)
	if mode&CorruptFlip != 0 && len(out) > 0 {
		if maxFlips < 1 {
			maxFlips = 1
		}
		for i, n := 0, 1+rng.Intn(maxFlips); i < n; i++ {
			v := rng.Intn(len(out))
			out[v] = !out[v]
		}
	}
	if mode&CorruptTruncate != 0 && len(out) > 0 {
		out = out[:rng.Intn(len(out))]
	}
	return out
}
