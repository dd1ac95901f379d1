package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cgramap/internal/mapper"
)

// solveBuckets are the histogram bucket upper bounds (seconds) for
// per-engine solve latencies. Mapping solves span sub-millisecond
// presolve rejections to minutes-long exact searches, hence the wide
// log-ish spread.
var solveBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}

// histogram is a fixed-bucket latency histogram (cumulative counts are
// computed at exposition time, as the Prometheus text format requires).
type histogram struct {
	counts []uint64 // one per bucket, non-cumulative
	more   uint64   // observations above the last bucket
	sum    float64
	count  uint64
}

func (h *histogram) observe(seconds float64) {
	h.sum += seconds
	h.count++
	for i, ub := range solveBuckets {
		if seconds <= ub {
			h.counts[i]++
			return
		}
	}
	h.more++
}

// Metrics aggregates the service's operational counters and exposes them
// in the Prometheus text exposition format. All methods are safe for
// concurrent use.
type Metrics struct {
	// Counters (atomically updated on the hot path).
	JobsSubmitted atomic.Int64
	JobsRejected  atomic.Int64
	CacheHits     atomic.Int64
	CacheMisses   atomic.Int64
	Deduplicated  atomic.Int64
	WorkersBusy   atomic.Int64
	// JobsShed counts submissions rejected by deadline-aware admission
	// control (the estimated queue wait exceeded the job's deadline);
	// each shed is also counted in JobsRejected.
	JobsShed atomic.Int64
	// JobsDegraded counts submissions accepted into the overload fast
	// lane and answered with a labelled heuristic instead of shed.
	JobsDegraded atomic.Int64
	// DeadlineExceeded counts jobs whose deadline fired server-side:
	// expired while queued, or cancelled mid-solve.
	DeadlineExceeded atomic.Int64
	// RetryAfterSent counts HTTP error responses that carried a
	// Retry-After header (backpressure advice actually delivered).
	RetryAfterSent atomic.Int64

	mu        sync.Mutex
	completed map[string]int64      // final job state -> count
	solve     map[string]*histogram // engine -> solve latency

	// Gauge sources, wired by the Server at construction.
	queueDepth    func() int
	degQueueDepth func() int
	cacheLen      func() int
	artifactStats func() mapper.ArtifactStats
	workers       int
}

func newMetrics() *Metrics {
	return &Metrics{
		completed: make(map[string]int64),
		solve:     make(map[string]*histogram),
	}
}

// IncCompleted counts one job reaching the given terminal state.
func (m *Metrics) IncCompleted(state JobState) {
	m.mu.Lock()
	m.completed[string(state)]++
	m.mu.Unlock()
}

// ObserveSolve records one engine solve's wall-clock latency.
func (m *Metrics) ObserveSolve(engine string, d time.Duration) {
	m.mu.Lock()
	h := m.solve[engine]
	if h == nil {
		h = &histogram{counts: make([]uint64, len(solveBuckets))}
		m.solve[engine] = h
	}
	h.observe(d.Seconds())
	m.mu.Unlock()
}

// Render writes every metric in the Prometheus text exposition format
// with deterministic ordering.
func (m *Metrics) Render(w io.Writer) error {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("cgramapd_jobs_submitted_total", "Jobs accepted by POST /v1/jobs.", m.JobsSubmitted.Load())
	counter("cgramapd_jobs_rejected_total", "Jobs rejected with 429 under backpressure.", m.JobsRejected.Load())
	counter("cgramapd_cache_hits_total", "Submissions answered from the content-addressed result cache.", m.CacheHits.Load())
	counter("cgramapd_cache_misses_total", "Submissions that required a new solve.", m.CacheMisses.Load())
	counter("cgramapd_singleflight_dedup_total", "Submissions coalesced onto an identical in-flight solve.", m.Deduplicated.Load())
	counter("cgramapd_jobs_shed_total", "Submissions shed by deadline-aware admission control.", m.JobsShed.Load())
	counter("cgramapd_jobs_degraded_total", "Submissions answered by the degraded heuristic fast lane.", m.JobsDegraded.Load())
	counter("cgramapd_deadline_exceeded_total", "Jobs whose deadline fired server-side (queued or mid-solve).", m.DeadlineExceeded.Load())
	counter("cgramapd_retry_after_responses_total", "Error responses that carried a Retry-After header.", m.RetryAfterSent.Load())

	m.mu.Lock()
	states := make([]string, 0, len(m.completed))
	for s := range m.completed {
		states = append(states, s)
	}
	sort.Strings(states)
	fmt.Fprintf(w, "# HELP cgramapd_jobs_completed_total Jobs reaching a terminal state.\n# TYPE cgramapd_jobs_completed_total counter\n")
	for _, s := range states {
		fmt.Fprintf(w, "cgramapd_jobs_completed_total{state=%q} %d\n", s, m.completed[s])
	}

	engines := make([]string, 0, len(m.solve))
	for e := range m.solve {
		engines = append(engines, e)
	}
	sort.Strings(engines)
	fmt.Fprintf(w, "# HELP cgramapd_solve_seconds Wall-clock solve latency per engine.\n# TYPE cgramapd_solve_seconds histogram\n")
	for _, e := range engines {
		h := m.solve[e]
		cum := uint64(0)
		for i, ub := range solveBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "cgramapd_solve_seconds_bucket{engine=%q,le=\"%g\"} %d\n", e, ub, cum)
		}
		fmt.Fprintf(w, "cgramapd_solve_seconds_bucket{engine=%q,le=\"+Inf\"} %d\n", e, cum+h.more)
		fmt.Fprintf(w, "cgramapd_solve_seconds_sum{engine=%q} %g\n", e, h.sum)
		fmt.Fprintf(w, "cgramapd_solve_seconds_count{engine=%q} %d\n", e, h.count)
	}
	m.mu.Unlock()

	gauge("cgramapd_workers_busy", "Workers currently running a solve.", m.WorkersBusy.Load())
	gauge("cgramapd_workers", "Size of the worker pool.", int64(m.workers))
	if m.queueDepth != nil {
		gauge("cgramapd_queue_depth", "Solves waiting for a worker.", int64(m.queueDepth()))
	}
	if m.degQueueDepth != nil {
		gauge("cgramapd_degraded_queue_depth", "Jobs waiting in the degraded fast lane.", int64(m.degQueueDepth()))
	}
	if m.cacheLen != nil {
		gauge("cgramapd_cache_entries", "Completed results held by the LRU cache.", int64(m.cacheLen()))
	}
	if m.artifactStats != nil {
		st := m.artifactStats()
		counter("cgramapd_artifact_mrrg_hits_total", "MRRG requests served from the artifact cache.", st.MRRG.Hits)
		counter("cgramapd_artifact_mrrg_misses_total", "MRRG requests that generated a new graph.", st.MRRG.Misses)
		gauge("cgramapd_artifact_mrrg_entries", "Generated MRRGs held by the artifact cache.", int64(st.MRRG.Entries))
		gauge("cgramapd_artifact_mrrg_bytes", "Approximate bytes held by cached MRRGs.", st.MRRG.Bytes)
		counter("cgramapd_artifact_template_hits_total", "Formulation-template requests served from the artifact cache.", st.Template.Hits)
		counter("cgramapd_artifact_template_misses_total", "Formulation-template requests that built a new template.", st.Template.Misses)
		gauge("cgramapd_artifact_template_entries", "Formulation templates held by the artifact cache.", int64(st.Template.Entries))
		gauge("cgramapd_artifact_template_bytes", "Approximate bytes held by cached templates.", st.Template.Bytes)
	}
	return nil
}
