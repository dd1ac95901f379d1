package main

import "time"

// layerSpec is a per-layer metric: a <layer>.<metric> name after the
// repository's modules, and the end-to-end metric it should move on the
// workloads listed (written down before measuring, so that a claimed
// layer gain can be checked against the end-to-end result it predicts).
type layerSpec struct {
	metricSpec
	moves string
	on    []string
}

var everyWorkload = []string{"table2", "minii", "formulate", "service"}

// perLayer lists the per-layer metrics a traced phase reports. Every
// workload reports every one; a layer the workload never calls reads 0.
//
// Unless the name says otherwise, a time is the layer's self time per
// operation (cell, ladder, model or request), so the times of one
// workload add up to at most its traced operation time; a count or a
// size in MB is per operation, except mrrg.nodes, stamp.vars,
// stamp.constraints and ladder.ii_mean, which are means per call.
var perLayer = []layerSpec{
	{metricSpec{"arch.grid_ms", "ms", "lower"}, "latency_gmean_ms", []string{"formulate"}},
	{metricSpec{"arch.discover_ms", "ms", "lower"}, "par2_s", []string{"minii"}},
	{metricSpec{"arch.generators", "count", "higher"}, "par2_s", []string{"minii"}},
	{metricSpec{"mrrg.generate_ms", "ms", "lower"}, "latency_gmean_ms", []string{"formulate"}},
	{metricSpec{"mrrg.nodes", "count", "lower"}, "latency_gmean_ms", []string{"formulate"}},
	{metricSpec{"mrrg.cache_hit_frac", "fraction", "higher"}, "par2_s", []string{"minii", "service"}},
	{metricSpec{"sched.mii_ms", "ms", "lower"}, "par2_s", []string{"minii"}},
	{metricSpec{"sched.skipped_rungs", "count", "higher"}, "par2_s", []string{"minii"}},
	{metricSpec{"template.build_ms", "ms", "lower"}, "latency_gmean_ms", []string{"formulate"}},
	{metricSpec{"stamp.ms", "ms", "lower"}, "latency_gmean_ms", []string{"formulate"}},
	{metricSpec{"stamp.alloc_mb", "MB", "lower"}, "peak_heap_mb", []string{"formulate"}},
	{metricSpec{"stamp.vars", "count", "lower"}, "par2_s", []string{"table2"}},
	{metricSpec{"stamp.constraints", "count", "lower"}, "par2_s", []string{"table2"}},
	{metricSpec{"stamp.presolve_decided", "count", "higher"}, "decided_frac", []string{"table2"}},
	{metricSpec{"ilp.writelp_ms", "ms", "lower"}, "ops_per_s", []string{"formulate"}},
	{metricSpec{"ilp.writelp_mb", "MB", "lower"}, "ops_per_s", []string{"formulate"}},
	{metricSpec{"map.build_ms", "ms", "lower"}, "par2_s", []string{"table2", "minii"}},
	{metricSpec{"map.decode_verify_ms", "ms", "lower"}, "par2_s", []string{"table2", "minii"}},
	{metricSpec{"solve.ms", "ms", "lower"}, "par2_s", []string{"table2", "minii"}},
	{metricSpec{"solve.sat_ms", "ms", "lower"}, "par2_s", []string{"table2", "minii"}},
	{metricSpec{"solve.unsat_ms", "ms", "lower"}, "par2_s", []string{"table2", "minii"}},
	{metricSpec{"solve.timeout_ms", "ms", "lower"}, "decided_frac", []string{"table2", "minii"}},
	{metricSpec{"solve.conflicts", "count", "lower"}, "par2_s", []string{"table2", "minii"}},
	{metricSpec{"solve.decisions", "count", "lower"}, "par2_s", []string{"table2", "minii"}},
	{metricSpec{"solve.propagations", "count", "lower"}, "par2_s", []string{"table2", "minii"}},
	{metricSpec{"solve.restarts", "count", "lower"}, "par2_s", []string{"table2", "minii"}},
	{metricSpec{"solve.props_per_s", "1/s", "higher"}, "par2_s", []string{"table2", "minii"}},
	{metricSpec{"solve.useful_frac", "fraction", "higher"}, "decided_frac", []string{"table2", "minii"}},
	{metricSpec{"ladder.rungs", "count", "lower"}, "par2_s", []string{"minii"}},
	{metricSpec{"ladder.proof_ms", "ms", "lower"}, "par2_s", []string{"minii"}},
	{metricSpec{"ladder.sat_ms", "ms", "lower"}, "par2_s", []string{"minii"}},
	{metricSpec{"ladder.timeout_ms", "ms", "lower"}, "decided_frac", []string{"minii"}},
	{metricSpec{"ladder.ii_mean", "II", "lower"}, "decided_frac", []string{"minii"}},
	{metricSpec{"ladder.divergent_frac", "fraction", "lower"}, "par2_s", []string{"minii"}},
	{metricSpec{"service.queue_ms", "ms", "lower"}, "par2_s", []string{"service"}},
	{metricSpec{"service.run_ms", "ms", "lower"}, "par2_s", []string{"service"}},
	{metricSpec{"service.build_ms", "ms", "lower"}, "latency_gmean_ms", []string{"service"}},
	{metricSpec{"service.solve_ms", "ms", "lower"}, "par2_s", []string{"service"}},
	{metricSpec{"service.overhead_ms", "ms", "lower"}, "latency_gmean_ms", []string{"service"}},
	{metricSpec{"service.hit_frac", "fraction", "higher"}, "ops_per_s", []string{"service"}},
	{metricSpec{"service.dedup_frac", "fraction", "higher"}, "ops_per_s", []string{"service"}},
	{metricSpec{"service.shed", "count", "lower"}, "ops_per_s", []string{"service"}},
	{metricSpec{"runtime.gc_pause_ms", "ms", "lower"}, "par2_s", everyWorkload},
	{metricSpec{"runtime.alloc_mb", "MB", "lower"}, "ops_per_s", everyWorkload},
	{metricSpec{"trace.overhead_frac", "fraction", "lower"}, "ops_per_s", everyWorkload},
}

// Span outcomes shared by the workloads.
const (
	statusSat     = "sat"
	statusUnsat   = "unsat"
	statusTimeout = "timeout"
)

// layerMetrics derives every per-layer metric from a traced phase of n
// operations.
func layerMetrics(tr *tracer, n float64) []metricValue {
	ls := tr.layers()
	get := func(name string) *layer {
		if l := ls[name]; l != nil {
			return l
		}
		return newLayer()
	}
	status := func(name, st string) *layer {
		if l := get(name).byStatus[st]; l != nil {
			return l
		}
		return newLayer()
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / n }
	selfMS := func(name string) float64 { return ms(get(name).self) }
	perOp := func(name, counter string) float64 { return get(name).counters[counter] / n }
	perCall := func(name, counter string) float64 {
		l := get(name)
		return l.counters[counter] / float64(l.calls)
	}
	tot := tr.totals
	solve, stamp := get("solve"), get("stamp")

	values := map[string]float64{
		"arch.grid_ms":           selfMS("arch.grid"),
		"arch.discover_ms":       selfMS("arch.discover"),
		"arch.generators":        perCall("arch.discover", "generators"),
		"mrrg.generate_ms":       selfMS("mrrg.generate"),
		"mrrg.nodes":             perCall("mrrg.generate", "nodes"),
		"mrrg.cache_hit_frac":    tot["mrrg.cache_hits"] / (tot["mrrg.cache_hits"] + tot["mrrg.cache_misses"]),
		"sched.mii_ms":           selfMS("sched.mii"),
		"sched.skipped_rungs":    perOp("sched.mii", "skipped"),
		"template.build_ms":      selfMS("template.build"),
		"stamp.ms":               ms(stamp.self),
		"stamp.alloc_mb":         perOp("stamp", "alloc_bytes") / 1e6,
		"stamp.vars":             stamp.counters["vars"] / stamp.counters["models"],
		"stamp.constraints":      stamp.counters["constraints"] / stamp.counters["models"],
		"stamp.presolve_decided": perOp("stamp", "presolved"),
		"ilp.writelp_ms":         selfMS("ilp.writelp"),
		"ilp.writelp_mb":         perOp("ilp.writelp", "bytes") / 1e6,
		"map.build_ms":           selfMS("map.build"),
		"map.decode_verify_ms":   selfMS("map"),
		"solve.ms":               ms(solve.self),
		"solve.sat_ms":           ms(status("solve", statusSat).self),
		"solve.unsat_ms":         ms(status("solve", statusUnsat).self),
		"solve.timeout_ms":       ms(status("solve", statusTimeout).self),
		"solve.conflicts":        perOp("solve", "conflicts"),
		"solve.decisions":        perOp("solve", "decisions"),
		"solve.propagations":     perOp("solve", "propagations"),
		"solve.restarts":         perOp("solve", "restarts"),
		"solve.props_per_s":      solve.counters["propagations"] / solve.total.Seconds(),
		"solve.useful_frac":      float64(status("solve", statusSat).calls+status("solve", statusUnsat).calls) / float64(solve.calls),
		"ladder.rungs":           float64(get("rung").calls) / n,
		"ladder.proof_ms":        ms(status("rung", statusUnsat).total),
		"ladder.sat_ms":          ms(status("rung", statusSat).total),
		"ladder.timeout_ms":      ms(status("rung", statusTimeout).total),
		"ladder.ii_mean":         tot["ladder.ii"] / tot["ladder.count"],
		"ladder.divergent_frac":  tot["ladder.divergent"] / tot["ladder.compared"],
		"service.queue_ms":       selfMS("service.queue"),
		"service.run_ms":         selfMS("service.run"),
		"service.build_ms":       selfMS("service.build"),
		"service.solve_ms":       selfMS("service.solve"),
		"service.overhead_ms":    selfMS("request"),
		"service.hit_frac":       tot["service.hits"] / tot["service.requests"],
		"service.dedup_frac":     tot["service.dedups"] / tot["service.requests"],
		"service.shed":           tot["service.shed"] / n,
		"runtime.gc_pause_ms":    tot["runtime.gc_pause_ns"] / 1e6 / n,
		"runtime.alloc_mb":       tot["runtime.alloc_bytes"] / 1e6 / n,
		"trace.overhead_frac":    tot["trace.plain_ops_per_s"]/tot["trace.traced_ops_per_s"] - 1,
	}
	out := make([]metricValue, len(perLayer))
	for i, m := range perLayer {
		out[i] = metricValue{m.name, finite(values[m.name]), m.unit}
	}
	return out
}
