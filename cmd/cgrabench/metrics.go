package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// metricSpec names a metric, its unit and which direction is better.
type metricSpec struct{ name, unit, better string }

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them, from its untraced phase; README.md says
// what each means on each workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_gmean_ms", "ms", "lower"},
	{"par2_s", "s", "lower"},
	{"decided_frac", "fraction", "higher"},
	{"peak_heap_mb", "MB", "lower"},
}

type metricValue struct {
	name  string
	value float64
	unit  string
}

// op is the outcome of one measured operation: a Table 2 cell, an II
// ladder, an exported model or a service request.
type op struct {
	// input names what the operation worked on. Latency, par2_s and
	// decided_frac are taken over inputs, from the medians of each
	// input's samples; service repeats have none, being cache work rather
	// than mapping work.
	input string
	dur   time.Duration
	// budget is the operation's time limit; 0 when it has none.
	budget  time.Duration
	decided bool
	err     error
}

// phase collects the operations of one measured phase.
type phase struct {
	ops []op
	// wall, when non-zero, is how long a concurrent workload's stream
	// ran (see throughput).
	wall time.Duration
}

func (p *phase) add(o op) { p.ops = append(p.ops, o) }

// repeat measures a workload's n inputs in order, pass after pass, until
// budget has elapsed. The first pass always completes, so every input is
// measured at least once; later passes add samples until the deadline.
// Each operation starts from a collected heap, as each run of a
// command-line tool does, so no operation pays for the garbage of the
// one before it.
func (p *phase) repeat(budget time.Duration, n int, run func(i int) (op, error)) error {
	deadline := time.Now().Add(budget)
	for pass := 0; ; pass++ {
		for i := 0; i < n; i++ {
			if pass > 0 && time.Now().After(deadline) {
				return nil
			}
			runtime.GC()
			o, err := run(i)
			if err != nil {
				return err
			}
			p.add(o)
		}
		if time.Now().After(deadline) {
			return nil
		}
	}
}

// inputStats is one input's samples reduced to medians.
type inputStats struct {
	dur     time.Duration // median duration
	par2    float64       // median of the PAR-2 scores, in seconds
	decided float64       // fraction of samples decided
}

// perInput reduces a phase's operations with an input to one entry per
// input, so that an input measured in more passes than another does not
// weigh more in any metric.
func perInput(p *phase) []inputStats {
	var order []string
	samples := map[string][]op{}
	for _, o := range p.ops {
		if o.input == "" {
			continue
		}
		if samples[o.input] == nil {
			order = append(order, o.input)
		}
		samples[o.input] = append(samples[o.input], o)
	}
	out := make([]inputStats, len(order))
	for i, in := range order {
		var durs, par2 []float64
		var decided float64
		for _, o := range samples[in] {
			durs = append(durs, float64(o.dur))
			if o.decided {
				decided++
				par2 = append(par2, o.dur.Seconds())
			} else {
				par2 = append(par2, 2*o.budget.Seconds())
			}
		}
		n := float64(len(durs))
		out[i] = inputStats{time.Duration(median(durs)), median(par2), decided / n}
	}
	return out
}

// throughput is a phase's operations per second: a concurrent
// workload's operations over its wall time, a sequential workload's
// inputs over the time one pass over them takes at their median
// durations.
func throughput(p *phase) float64 {
	if p.wall > 0 {
		return float64(len(p.ops)) / p.wall.Seconds()
	}
	ins := perInput(p)
	var pass time.Duration
	for _, in := range ins {
		pass += in.dur
	}
	return float64(len(ins)) / pass.Seconds()
}

// endToEndMetrics derives every end-to-end metric from an untraced phase.
func endToEndMetrics(p *phase, setup, peakHeapMB float64) []metricValue {
	var logLat, decided, par2 float64
	ins := perInput(p)
	for _, in := range ins {
		logLat += math.Log(float64(in.dur) / float64(time.Millisecond))
		decided += in.decided
		par2 += in.par2
	}
	n := float64(len(ins))
	values := map[string]float64{
		"setup_s":          setup,
		"ops_per_s":        throughput(p),
		"latency_gmean_ms": math.Exp(logLat / n),
		"par2_s":           par2 / n,
		"decided_frac":     decided / n,
		"peak_heap_mb":     peakHeapMB,
	}
	out := make([]metricValue, len(endToEnd))
	for i, m := range endToEnd {
		out[i] = metricValue{m.name, finite(values[m.name]), m.unit}
	}
	return out
}

// median returns the median of xs, averaging the middle pair of an even
// count; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// finite maps the NaN and infinities an empty ratio produces to 0, so
// the report stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// heapWatch records the largest live heap any garbage collection finds
// while it runs: after every cycle a finalizer reads the live heap that
// cycle marked. Peak resident memory would also count garbage not yet
// collected, which depends on the collector's pacing more than on the
// program.
type heapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

// sentinel is the object whose finalizer marks the end of a collection.
// It holds a pointer so that it is not batched by the tiny allocator,
// whose objects may never be finalized.
type sentinel struct{ _ *byte }

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		// Finalizers run one at a time on one goroutine, so liveHeap is
		// never read concurrently.
		metrics.Read(liveHeap)
		if v := liveHeap[0].Value.Uint64(); v > w.peak.Load() {
			w.peak.Store(v)
		}
		if !w.stopped.Load() {
			w.arm()
		}
	})
}

// stop ends the watch and returns the peak in MB.
func (w *heapWatch) stop() float64 {
	w.stopped.Store(true)
	return float64(w.peak.Load()) / 1e6
}

var heapAllocs = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocated returns the bytes allocated on the heap so far. Only the
// measuring goroutine calls it.
func allocated() float64 {
	metrics.Read(heapAllocs)
	return float64(heapAllocs[0].Value.Uint64())
}
