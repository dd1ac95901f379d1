// Package service implements mapping-as-a-service: a long-lived,
// concurrent job server over the repository's CGRA mappers, built for
// the paper's headline workload — architecture exploration re-mapping
// the same kernels across many CGRA variants.
//
// A submission names a DFG, an architecture, and a mapper configuration.
// Jobs flow through a bounded queue into a fixed worker pool that drives
// the existing engines (cdcl, bb, or the annealer) with a per-job
// context and deadline. In front of the workers sits a
// content-addressed result cache: the canonical fingerprint of
// (DFG structure, architecture structure, engine options) — stable under
// node renaming and insertion order — keys an LRU of completed results,
// and single-flight deduplication coalesces concurrent identical
// submissions onto one solve. The server degrades under load with 429 +
// Retry-After instead of queueing unboundedly, and drains accepted jobs
// on shutdown instead of dropping them.
//
// The HTTP surface lives in http.go, the Go client in client.go, and the
// daemon entry point in cmd/cgramapd.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cgramap/internal/anneal"
	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/solve/bb"
)

// Engine names accepted by job submissions.
const (
	EngineCDCL   = "cdcl"
	EngineBB     = "bb"
	EngineAnneal = "anneal"
)

// ErrPortfolioRemoved answers every request for the deleted "portfolio"
// engine, from the job server and from the CLIs alike.
var ErrPortfolioRemoved = errors.New(`engine "portfolio" has been removed: use "cdcl" ` +
	`(a clause-sharing gang with -workers, or cgramapd -solve-workers) ` +
	`or "anneal" for a heuristic witness`)

// checkEngine accepts engine if it is one of allowed.
func checkEngine(engine string, allowed ...string) error {
	switch {
	case slices.Contains(allowed, engine):
		return nil
	case engine == "portfolio":
		return ErrPortfolioRemoved
	}
	return fmt.Errorf("unknown engine %q", engine)
}

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle states. Queued and Running are transient; Done,
// Cancelled and Failed are terminal.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobCancelled JobState = "cancelled"
	JobFailed    JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobCancelled || s == JobFailed
}

// JobRequest is the wire form of a mapping job submission
// (POST /v1/jobs). Exactly one application source (DFG or Benchmark) and
// one architecture source (ArchXML or Grid) must be set.
type JobRequest struct {
	// DFG is the application in the textual DFG format (internal/dfg).
	DFG string `json:"dfg,omitempty"`
	// Benchmark names one of the paper's Table 1 kernels instead.
	Benchmark string `json:"benchmark,omitempty"`
	// ArchXML is the architecture in the XML description language.
	ArchXML string `json:"arch,omitempty"`
	// Grid builds a paper-style grid architecture instead.
	Grid *arch.GridSpec `json:"grid,omitempty"`
	// Contexts, when > 0, overrides the architecture's context count.
	Contexts int `json:"contexts,omitempty"`
	// AutoII, when > 0, searches for the provably smallest initiation
	// interval up to this bound (mapper.MapAuto) instead of solving at
	// a fixed context count.
	AutoII int `json:"auto_ii,omitempty"`
	// Engine selects cdcl (default), bb, or anneal.
	Engine string `json:"engine,omitempty"`
	// Symmetry controls symmetry-breaking constraints: "auto" (default:
	// on for auto-II ladders, off at a fixed context count), "on" or
	// "off". It is purely a speed knob — the answer is unchanged.
	Symmetry string `json:"symmetry,omitempty"`
	// Objective is "feasibility" (default) or "routing".
	Objective string `json:"objective,omitempty"`
	// DeadlineMS bounds the solve wall clock (0 = server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// JobSpec is a parsed, validated job: the exact inputs a worker solves.
type JobSpec struct {
	DFG      *dfg.Graph
	Arch     *arch.Arch
	Engine   string
	AutoII   int
	Deadline time.Duration
	// Mapper is what the job's solves run with: the request's objective,
	// the server's speed knobs (SolveWorkers, Seed, Symmetry) with the
	// request's symmetry choice applied, and the server-wide artifact
	// cache (nil when disabled). Of its fields only Objective enters the fingerprint; the speed
	// knobs are exempt (see mapper.Options).
	Mapper mapper.Options
	// Fingerprint is the canonical content-address of this job (see
	// Fingerprint); equal fingerprints have equal answers.
	Fingerprint string
}

// JobResult is the wire form of a completed solve.
type JobResult struct {
	Status   ilp.Status `json:"status"`
	Feasible bool       `json:"feasible"`
	// Degraded is true when the answer came from the overload fast
	// lane: a short heuristic solve served because the exact queue was
	// saturated. A degraded answer is verified but proves nothing, and
	// is never cached.
	Degraded bool `json:"degraded,omitempty"`
	// Proven is true when the answer is a proof from a complete engine;
	// a heuristic witness is verified but proves nothing beyond
	// feasibility.
	Proven bool   `json:"proven"`
	Reason string `json:"reason,omitempty"`
	// II is the initiation interval found by an auto-II search.
	II          int     `json:"ii,omitempty"`
	Vars        int     `json:"vars,omitempty"`
	Constraints int     `json:"constraints,omitempty"`
	BuildMS     float64 `json:"build_ms"`
	SolveMS     float64 `json:"solve_ms"`
	Engine      string  `json:"engine"`
	// Mapping is the verified mapping in portable (name-based) form,
	// present when feasible.
	Mapping *mapper.Portable `json:"mapping,omitempty"`
}

// JobStatus is the wire form of a job's lifecycle snapshot.
type JobStatus struct {
	ID          string    `json:"id"`
	State       JobState  `json:"state"`
	Fingerprint string    `json:"fingerprint"`
	Engine      string    `json:"engine"`
	CacheHit    bool      `json:"cache_hit,omitempty"`
	Deduped     bool      `json:"deduped,omitempty"`
	Degraded    bool      `json:"degraded,omitempty"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// Sentinel admission failures. They travel inside *Error (match with
// errors.Is) so HTTP and client layers can map overload conditions to
// 429/503 + Retry-After without string inspection.
var (
	// ErrQueueFull marks a submission rejected because no queue slot was
	// available (429).
	ErrQueueFull = errors.New("job queue full")
	// ErrDeadlineUnservable marks a submission shed because the
	// estimated queue wait already exceeds the job's deadline (429):
	// accepting it would only fail it later, after burning a slot.
	ErrDeadlineUnservable = errors.New("estimated queue wait exceeds job deadline")
	// ErrDraining marks a submission refused during shutdown (503).
	ErrDraining = errors.New("server is draining")
)

// drainRetryAfter is the Retry-After hint (seconds) sent with 503
// draining responses, so load balancers and clients re-route or back
// off instead of hammering a terminating instance.
const drainRetryAfter = 10

// Error is a service failure with an HTTP status code.
type Error struct {
	Code    int
	Message string
	// RetryAfter, in seconds, is set on backpressure rejections.
	RetryAfter int
	// Err is the underlying cause, when one of the sentinel admission
	// errors applies (errors.Is sees through it).
	Err error
}

func (e *Error) Error() string { return e.Message }

// Unwrap exposes the sentinel cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

func errf(code int, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Fingerprint computes the canonical content-address of a job: the DFG
// structure hash, the architecture structure hash (which covers the
// context count), and the solver-relevant options. Names and the
// submission's deadline are deliberately excluded — a deadline changes
// whether the answer arrives, never what it is, and only definitive
// answers enter the cache.
func Fingerprint(g *dfg.Graph, a *arch.Arch, engine string, objective mapper.ObjectiveMode, autoII int) string {
	h := sha256.New()
	fmt.Fprintf(h, "cgramap/job/v1\n%s\n%s\n%s\n%d\n%d\n",
		g.Fingerprint(), a.Fingerprint(), engine, int(objective), autoII)
	return hex.EncodeToString(h.Sum(nil))
}

// Options configures a Server. The zero value picks sensible defaults.
type Options struct {
	// Workers is the solve pool size (default 4).
	Workers int
	// QueueDepth bounds the number of solves waiting for a worker;
	// submissions beyond it are rejected with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the result cache (default 512; negative
	// disables caching).
	CacheEntries int
	// ArtifactCacheEntries bounds the artifact cache shared by every
	// job: generated MRRGs and formulation templates, each in their own
	// LRU of this many entries (default 64; negative disables artifact
	// caching entirely). It becomes JobSpec.Mapper.Artifacts.
	ArtifactCacheEntries int
	// DefaultDeadline applies to jobs that set no deadline (default 60s).
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-requested deadlines (default 15m).
	MaxDeadline time.Duration
	// RetainJobs bounds how many finished job records are kept for
	// status/result polling before the oldest are forgotten
	// (default 4096).
	RetainJobs int
	// SolveWorkers is the solver-level parallelism inside every job
	// (JobSpec.Mapper.Workers); <= 1 keeps each solve sequential. The
	// job pool (Workers) and the solver gangs share the process-wide
	// worker budget, so layering the two degrades gracefully instead of
	// oversubscribing.
	SolveWorkers int
	// Seed is every job's base solver seed (JobSpec.Mapper.Seed; 0
	// keeps the engines' defaults).
	Seed int64
	// Symmetry is the symmetry-breaking mode of jobs that submit "auto"
	// or nothing (JobSpec.Mapper.Symmetry); a request's explicit
	// "on"/"off" wins.
	Symmetry mapper.SymmetryMode
	// JobTimeout caps every job's solve wall clock server-side, measured
	// from the moment a worker starts it (0 = no cap). It bounds the
	// long tail regardless of the deadline the client asked for.
	JobTimeout time.Duration
	// DegradeOnOverload answers queue-full submissions with a fast
	// labelled heuristic mapping (degraded: true) from a small dedicated
	// lane instead of shedding them with 429. Auto-II jobs are still
	// shed: a heuristic cannot prove an II minimal.
	DegradeOnOverload bool
	// DegradedDeadline bounds each degraded heuristic solve (default 2s,
	// further clamped by the job's own deadline).
	DegradedDeadline time.Duration
	// DegradedWorkers sizes the degraded fast lane pool (default 1).
	DegradedWorkers int
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
	// Solve replaces the built-in engine dispatch — the seam the tests
	// (and embedders with custom pipelines) plug into. nil selects the
	// real mappers.
	Solve func(ctx context.Context, spec *JobSpec) (*JobResult, error)
	// SolveDegraded replaces the degraded lane's dispatch (default
	// RunSpecDegraded: one short simulated-annealing run).
	SolveDegraded func(ctx context.Context, spec *JobSpec) (*JobResult, error)
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 512
	}
	if o.ArtifactCacheEntries == 0 {
		o.ArtifactCacheEntries = 64
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 60 * time.Second
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 15 * time.Minute
	}
	if o.RetainJobs <= 0 {
		o.RetainJobs = 4096
	}
	if o.DegradedDeadline <= 0 {
		o.DegradedDeadline = 2 * time.Second
	}
	if o.DegradedWorkers <= 0 {
		o.DegradedWorkers = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Solve == nil {
		o.Solve = RunSpec
	}
	if o.SolveDegraded == nil {
		o.SolveDegraded = RunSpecDegraded
	}
}

// job is the server-side job record. All fields are guarded by the
// server mutex except done, which is closed exactly once under it.
type job struct {
	id          string
	fingerprint string
	engine      string
	state       JobState
	cacheHit    bool
	deduped     bool
	degraded    bool
	result      *JobResult
	errMsg      string
	submitted   time.Time
	started     time.Time
	finished    time.Time
	done        chan struct{}
	// ex is the solve a live job is attached to; it is cleared when the
	// job reaches a terminal state, so that retained records do not pin
	// the solve's spec (parsed DFG and architecture) and context.
	ex *exec
}

// exec is one in-flight solve, shared by every job submitted with the
// same fingerprint while it runs (single-flight).
type exec struct {
	fp     string
	spec   *JobSpec
	ctx    context.Context
	cancel context.CancelFunc
	// deadline is the job's absolute deadline, anchored at submission:
	// time spent waiting in the queue spends it too, so a backlog can
	// never make accepted work run arbitrarily late.
	deadline time.Time
	// degraded routes the exec through the overload fast lane (short
	// heuristic solve, no dedup, no caching).
	degraded bool
	jobs     []*job // attached live jobs; empty means fully cancelled
}

// Server is the mapping job server. Create with New, serve its Handler,
// and Shutdown to drain.
type Server struct {
	opts    Options
	Metrics *Metrics

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // finished-job retention ring, oldest first
	inflight map[string]*exec
	queue    chan *exec
	degQueue chan *exec // overload fast lane; nil unless DegradeOnOverload
	draining bool
	nextID   uint64

	// avgSolveNS is an EWMA of recent solve wall clocks (nanoseconds),
	// feeding the admission estimator.
	avgSolveNS atomic.Int64

	cache     *resultCache
	artifacts *mapper.ArtifactCache // nil when ArtifactCacheEntries < 0
	wg        sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	opts.fill()
	s := &Server{
		opts:     opts,
		Metrics:  newMetrics(),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*exec),
		queue:    make(chan *exec, opts.QueueDepth),
		cache:    newResultCache(opts.CacheEntries),
	}
	if opts.ArtifactCacheEntries > 0 {
		s.artifacts = mapper.NewArtifactCache(opts.ArtifactCacheEntries)
		s.Metrics.artifactStats = s.artifacts.Stats
	}
	s.Metrics.workers = opts.Workers
	s.Metrics.queueDepth = func() int { return len(s.queue) }
	s.Metrics.cacheLen = s.cache.Len
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if opts.DegradeOnOverload {
		s.degQueue = make(chan *exec, opts.QueueDepth)
		s.Metrics.degQueueDepth = func() int { return len(s.degQueue) }
		for i := 0; i < opts.DegradedWorkers; i++ {
			s.wg.Add(1)
			go s.degradedWorker()
		}
	}
	return s
}

// estimatedWait predicts how long a newly enqueued job would wait for a
// worker: queue occupancy (plus itself) times the recent average solve
// time, divided across the pool. Zero until the first solve completes —
// with no evidence, everything is admitted. Callers hold s.mu.
func (s *Server) estimatedWait() time.Duration {
	avg := time.Duration(s.avgSolveNS.Load())
	if avg <= 0 {
		return 0
	}
	return avg * time.Duration(len(s.queue)+1) / time.Duration(s.opts.Workers)
}

// recordSolveTime folds one completed solve into the admission
// estimator's EWMA (weight 0.3, integer arithmetic).
func (s *Server) recordSolveTime(d time.Duration) {
	for {
		old := s.avgSolveNS.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)*3/10
		}
		if s.avgSolveNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds renders a wait estimate as a Retry-After header
// value: at least 1 second (the header has second granularity), capped
// so a pathological estimate never parks clients for minutes.
func retryAfterSeconds(wait time.Duration) int {
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// ParseRequest validates a submission and resolves it into a JobSpec.
func (s *Server) ParseRequest(req *JobRequest) (*JobSpec, error) {
	var g *dfg.Graph
	var err error
	switch {
	case req.DFG != "" && req.Benchmark != "":
		return nil, errf(400, "specify dfg or benchmark, not both")
	case req.DFG != "":
		if g, err = dfg.ParseString(req.DFG); err != nil {
			return nil, errf(400, "parsing dfg: %v", err)
		}
	case req.Benchmark != "":
		if g, err = bench.Get(req.Benchmark); err != nil {
			return nil, errf(400, "%v", err)
		}
	default:
		return nil, errf(400, "no application: set dfg or benchmark")
	}

	var a *arch.Arch
	switch {
	case req.ArchXML != "" && req.Grid != nil:
		return nil, errf(400, "specify arch or grid, not both")
	case req.ArchXML != "":
		if a, err = arch.ReadXML(strings.NewReader(req.ArchXML)); err != nil {
			return nil, errf(400, "parsing arch: %v", err)
		}
	case req.Grid != nil:
		spec := *req.Grid
		if spec.Contexts == 0 && req.Contexts > 0 {
			spec.Contexts = req.Contexts
		}
		if a, err = arch.Grid(spec); err != nil {
			return nil, errf(400, "building grid: %v", err)
		}
	default:
		return nil, errf(400, "no architecture: set arch or grid")
	}
	if req.Contexts < 0 || req.AutoII < 0 {
		return nil, errf(400, "contexts and auto_ii must be non-negative")
	}
	if req.Contexts > 0 {
		aa := *a
		aa.Contexts = req.Contexts
		a = &aa
	}

	engine := req.Engine
	if engine == "" {
		engine = EngineCDCL
	}
	if err := checkEngine(engine, EngineCDCL, EngineBB, EngineAnneal); err != nil {
		return nil, errf(400, "%v", err)
	}
	if engine == EngineAnneal && req.AutoII > 0 {
		return nil, errf(400, "auto_ii requires an exact engine (a heuristic cannot prove an II minimal)")
	}

	objective := mapper.Feasibility
	switch req.Objective {
	case "", "feasibility":
	case "routing":
		objective = mapper.MinimizeRouting
	default:
		return nil, errf(400, "unknown objective %q", req.Objective)
	}

	symmetry, err := mapper.ParseSymmetryMode(req.Symmetry)
	if err != nil {
		return nil, errf(400, "%v", err)
	}
	if symmetry == mapper.SymmetryAuto {
		// The server-wide default fills in only when the job itself did
		// not choose; auto then resolves inside the mapper (on for
		// auto-II ladders, off at a fixed II).
		symmetry = s.opts.Symmetry
	}
	mo := mapper.Options{Objective: objective, Workers: s.opts.SolveWorkers, Seed: s.opts.Seed,
		Symmetry: symmetry, Artifacts: s.artifacts}

	deadline := s.opts.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.opts.MaxDeadline {
		deadline = s.opts.MaxDeadline
	}

	return &JobSpec{
		DFG:         g,
		Arch:        a,
		Engine:      engine,
		AutoII:      req.AutoII,
		Deadline:    deadline,
		Mapper:      mo,
		Fingerprint: Fingerprint(g, a, engine, objective, req.AutoII),
	}, nil
}

// Submit accepts a job: answered from cache, coalesced onto an identical
// in-flight solve, enqueued for a worker, or — when the queue is
// saturated and degradation is enabled — routed to the heuristic fast
// lane. It returns the job's initial status snapshot, or an *Error
// (400 invalid, 429 backpressure/shed, 503 draining).
func (s *Server) Submit(req *JobRequest) (*JobStatus, error) {
	spec, err := s.ParseRequest(req)
	if err != nil {
		return nil, err
	}
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &Error{Code: 503, Message: ErrDraining.Error(),
			RetryAfter: drainRetryAfter, Err: ErrDraining}
	}
	j := &job{
		fingerprint: spec.Fingerprint,
		engine:      spec.Engine,
		submitted:   now,
		done:        make(chan struct{}),
	}
	s.nextID++
	j.id = "j" + strconv.FormatUint(s.nextID, 36) + "-" + spec.Fingerprint[:8]

	if res, ok := s.cache.Get(spec.Fingerprint); ok {
		j.state = JobDone
		j.cacheHit = true
		j.result = res
		j.started, j.finished = now, now
		close(j.done)
		s.Metrics.JobsSubmitted.Add(1)
		s.Metrics.CacheHits.Add(1)
		s.Metrics.IncCompleted(JobDone)
		s.register(j)
		return snapshot(j), nil
	}

	if ex := s.inflight[spec.Fingerprint]; ex != nil {
		j.state = ex.jobs[0].state // mirrors queued/running
		j.deduped = true
		j.started = ex.jobs[0].started
		j.ex = ex
		ex.jobs = append(ex.jobs, j)
		s.Metrics.JobsSubmitted.Add(1)
		s.Metrics.Deduplicated.Add(1)
		s.register(j)
		return snapshot(j), nil
	}

	// Deadline-aware admission: estimate how long a new job would wait
	// for a worker. A job whose deadline would expire in the queue is
	// shed now, with a Retry-After hint sized to the backlog, instead of
	// accepted and failed later.
	if wait := s.estimatedWait(); wait > spec.Deadline {
		s.Metrics.JobsShed.Add(1)
		s.Metrics.JobsRejected.Add(1)
		return nil, &Error{Code: 429,
			Message: fmt.Sprintf("%v: estimated wait %v > deadline %v",
				ErrDeadlineUnservable, wait.Round(time.Millisecond), spec.Deadline),
			RetryAfter: retryAfterSeconds(wait), Err: ErrDeadlineUnservable}
	}

	ctx, cancel := context.WithCancel(context.Background())
	ex := &exec{fp: spec.Fingerprint, spec: spec, ctx: ctx, cancel: cancel,
		deadline: now.Add(spec.Deadline)}
	j.state = JobQueued
	j.ex = ex
	ex.jobs = []*job{j}
	select {
	case s.queue <- ex:
	default:
		// The exact queue is saturated. Degrade to the heuristic fast
		// lane when enabled (auto-II jobs excluded: a heuristic cannot
		// prove an II minimal), otherwise shed with 429.
		if s.degQueue != nil && spec.AutoII == 0 {
			ex.degraded = true
			j.degraded = true
			select {
			case s.degQueue <- ex:
				s.Metrics.JobsSubmitted.Add(1)
				s.Metrics.JobsDegraded.Add(1)
				s.register(j)
				return snapshot(j), nil
			default:
				// Fast lane saturated too: fall through to shedding.
			}
		}
		cancel()
		s.Metrics.JobsRejected.Add(1)
		return nil, &Error{Code: 429, Message: ErrQueueFull.Error(),
			RetryAfter: retryAfterSeconds(s.estimatedWait()), Err: ErrQueueFull}
	}
	s.inflight[spec.Fingerprint] = ex
	s.Metrics.JobsSubmitted.Add(1)
	s.Metrics.CacheMisses.Add(1)
	s.register(j)
	return snapshot(j), nil
}

// register indexes a job and evicts the oldest finished jobs beyond the
// retention bound. Callers hold s.mu.
func (s *Server) register(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for len(s.order) > s.opts.RetainJobs {
		victim := s.jobs[s.order[0]]
		if victim != nil && !victim.state.Terminal() {
			break // never forget a live job
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
}

// Job returns a job's status snapshot.
func (s *Server) Job(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, errf(404, "unknown job %q", id)
	}
	return snapshot(j), nil
}

// Result returns a finished job's result. It fails with 409 while the
// job is still queued/running or was cancelled, and 500 if it failed.
func (s *Server) Result(id string) (*JobResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, errf(404, "unknown job %q", id)
	}
	switch j.state {
	case JobDone:
		return j.result, nil
	case JobFailed:
		return nil, errf(500, "job %s failed: %s", id, j.errMsg)
	case JobCancelled:
		return nil, errf(409, "job %s was cancelled", id)
	default:
		return nil, errf(409, "job %s is %s", id, j.state)
	}
}

// Cancel cancels a queued or running job. The cancellation propagates to
// the solver context once no other live submission shares the solve.
func (s *Server) Cancel(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, errf(404, "unknown job %q", id)
	}
	if j.state.Terminal() {
		return nil, errf(409, "job %s already %s", id, j.state)
	}
	j.state = JobCancelled
	j.finished = time.Now()
	close(j.done)
	s.Metrics.IncCompleted(JobCancelled)
	if ex := j.ex; ex != nil {
		j.ex = nil
		live := ex.jobs[:0]
		for _, other := range ex.jobs {
			if other != j {
				live = append(live, other)
			}
		}
		ex.jobs = live
		if len(ex.jobs) == 0 {
			// Last interested submission gone: stop the solve. Degraded
			// execs never enter the inflight index, so only remove the
			// entry when it is really this exec's (a live successor may
			// own the fingerprint by now).
			ex.cancel()
			if s.inflight[ex.fp] == ex {
				delete(s.inflight, ex.fp)
			}
		}
	}
	return snapshot(j), nil
}

// Wait blocks until the job reaches a terminal state or ctx ends, and
// returns the final snapshot.
func (s *Server) Wait(ctx context.Context, id string) (*JobStatus, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, errf(404, "unknown job %q", id)
	}
	select {
	case <-j.done:
		// Snapshot the captured job rather than re-looking it up: once
		// terminal it may already have been evicted from s.jobs by the
		// retention loop.
		s.mu.Lock()
		defer s.mu.Unlock()
		return snapshot(j), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown stops accepting submissions and waits until every accepted
// job has reached a terminal state (the queue drains through the worker
// pool; nothing accepted is dropped). It returns ctx.Err if ctx ends
// first, leaving workers running — callers may retry.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // workers drain the remaining solves, then exit
		if s.degQueue != nil {
			close(s.degQueue)
		}
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker consumes solves from the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for ex := range s.queue {
		s.runExec(ex)
	}
}

// runExec performs one solve and completes every attached job.
func (s *Server) runExec(ex *exec) {
	if !s.begin(ex, "deadline exceeded while queued") {
		return
	}
	s.Metrics.WorkersBusy.Add(1)
	ctx, cancel := context.WithDeadline(ex.ctx, ex.deadline)
	if s.opts.JobTimeout > 0 {
		// Server-side cap on the solve itself, independent of how
		// generous a deadline the client asked for.
		var capCancel context.CancelFunc
		ctx, capCancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer capCancel()
	}
	start := time.Now()
	res, err := s.contain(ctx, ex, s.opts.Solve)
	elapsed := time.Since(start)
	if ctx.Err() == context.DeadlineExceeded {
		s.Metrics.DeadlineExceeded.Add(1)
	}
	cancel()
	s.Metrics.WorkersBusy.Add(-1)
	s.Metrics.ObserveSolve(ex.spec.Engine, elapsed)
	s.recordSolveTime(elapsed)
	if err != nil {
		s.opts.Logf("service: job %s (%s on %s) failed: %v",
			ex.fp[:8], ex.spec.DFG.Name, ex.spec.Arch.Name, err)
	}
	s.complete(ex, res, err)
}

// contain runs one solve of ex, turning a panic into the job's error
// (with the stack logged), so a crashing solver fails its jobs instead
// of killing the server.
func (s *Server) contain(ctx context.Context, ex *exec, solve func(context.Context, *JobSpec) (*JobResult, error)) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.opts.Logf("service: job %s (%s on %s) solver panicked: %v\n%s",
				ex.fp[:8], ex.spec.DFG.Name, ex.spec.Arch.Name, r, debug.Stack())
			res, err = nil, fmt.Errorf("solver panicked: %v", r)
		}
	}()
	return solve(ctx, ex.spec)
}

// begin marks every job attached to ex running. It returns false when
// there is nothing left to solve: every submission was cancelled while
// queued (ex is released), or ex's deadline, which is absolute from
// submission, expired while it queued (its jobs fail with expired,
// without burning a solve slot — the admission estimator tries to shed
// these up front, but it is an estimate, not a guarantee).
func (s *Server) begin(ex *exec, expired string) bool {
	s.mu.Lock()
	if len(ex.jobs) == 0 {
		// Cancel already removed the inflight entry, and a later Submit
		// may have installed a fresh exec under the same fingerprint —
		// only remove the entry if it is still ours.
		if s.inflight[ex.fp] == ex {
			delete(s.inflight, ex.fp)
		}
		s.mu.Unlock()
		ex.cancel()
		return false
	}
	now := time.Now()
	for _, j := range ex.jobs {
		j.state = JobRunning
		j.started = now
	}
	s.mu.Unlock()
	if !ex.deadline.After(now) {
		s.Metrics.DeadlineExceeded.Add(1)
		s.complete(ex, nil, errors.New(expired))
		return false
	}
	return true
}

// complete finishes every job attached to ex — failed with err, or done
// with res — and releases ex. A definitive, non-degraded result enters
// the cache.
func (s *Server) complete(ex *exec, res *JobResult, err error) {
	s.mu.Lock()
	if s.inflight[ex.fp] == ex {
		delete(s.inflight, ex.fp)
	}
	now := time.Now()
	for _, j := range ex.jobs {
		j.finished = now
		j.ex = nil
		if err != nil {
			j.state = JobFailed
			j.errMsg = err.Error()
		} else {
			j.state = JobDone
			j.result = res
		}
		s.Metrics.IncCompleted(j.state)
		close(j.done)
	}
	if err == nil && res != nil && !res.Degraded && res.Status != ilp.Unknown && len(ex.jobs) > 0 {
		s.cache.Add(ex.fp, res)
	}
	s.mu.Unlock()
	ex.cancel()
}

// DegradedReason labels every answer served by the overload fast lane.
const DegradedReason = "degraded: heuristic (simulated annealing) answer served under overload; no optimality or infeasibility proof"

// degradedWorker consumes the overload fast lane until Shutdown closes it.
func (s *Server) degradedWorker() {
	defer s.wg.Done()
	for ex := range s.degQueue {
		s.runDegraded(ex)
	}
}

// runDegraded answers one overload-admitted job from the fast lane: a
// short heuristic solve, labelled degraded, never cached and never
// deduplicated — the answer reflects this moment's overload, not a
// property of the instance.
func (s *Server) runDegraded(ex *exec) {
	if !s.begin(ex, "deadline exceeded while queued (degraded lane)") {
		return
	}
	deadline := time.Now().Add(s.opts.DegradedDeadline)
	if ex.deadline.Before(deadline) {
		deadline = ex.deadline
	}
	ctx, cancel := context.WithDeadline(ex.ctx, deadline)
	start := time.Now()
	res, err := s.contain(ctx, ex, s.opts.SolveDegraded)
	cancel()
	s.Metrics.ObserveSolve("degraded", time.Since(start))
	if err == nil && res != nil {
		res.Degraded = true
		if res.Reason == "" {
			res.Reason = DegradedReason
		}
	}
	if err != nil {
		s.opts.Logf("service: degraded job %s (%s on %s) failed: %v",
			ex.fp[:8], ex.spec.DFG.Name, ex.spec.Arch.Name, err)
	}
	s.complete(ex, res, err)
}

// snapshot renders a job's wire status. Callers hold s.mu.
func snapshot(j *job) *JobStatus {
	return &JobStatus{
		ID:          j.id,
		State:       j.state,
		Fingerprint: j.fingerprint,
		Engine:      j.engine,
		CacheHit:    j.cacheHit,
		Deduped:     j.deduped,
		Degraded:    j.degraded,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
}

// RunSpec is the built-in engine dispatch: it solves a JobSpec with the
// engine it names, honouring ctx for cancellation and deadline. It is
// the default Options.Solve.
func RunSpec(ctx context.Context, spec *JobSpec) (*JobResult, error) {
	out := &JobResult{Engine: spec.Engine}

	if spec.Engine == EngineAnneal {
		mg, err := specMRRG(spec)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := anneal.Map(ctx, spec.DFG, mg, anneal.Options{Seed: spec.Mapper.Seed})
		if err != nil {
			return nil, err
		}
		out.Status = res.Status
		out.Feasible = res.Feasible
		out.SolveMS = ms(time.Since(start))
		if res.Feasible {
			out.Reason = "heuristic (simulated annealing) witness; no optimality or infeasibility proof"
			out.Mapping = res.Mapping.Portable()
		}
		return out, nil
	}

	mo := spec.Mapper
	switch spec.Engine {
	case EngineCDCL:
	case EngineBB:
		mo.Solver = bb.New()
	default:
		return nil, fmt.Errorf("service: unknown engine %q", spec.Engine)
	}

	if spec.AutoII > 0 {
		auto, err := mapper.MapAuto(ctx, spec.DFG, spec.Arch, spec.AutoII, mo)
		if err != nil {
			return nil, err
		}
		fillFromMapperResult(out, auto.Result)
		out.II = auto.II
		out.Proven = auto.Status != ilp.Unknown
		return out, nil
	}

	mg, err := specMRRG(spec)
	if err != nil {
		return nil, err
	}
	res, err := mapper.Map(ctx, spec.DFG, mg, mo)
	if err != nil {
		return nil, err
	}
	fillFromMapperResult(out, res)
	out.Proven = res.Status != ilp.Unknown
	return out, nil
}

// RunSpecDegraded is the degraded lane's default dispatch: one short
// simulated-annealing run, labelled as a heuristic witness. It is the
// default Options.SolveDegraded.
func RunSpecDegraded(ctx context.Context, spec *JobSpec) (*JobResult, error) {
	mg, err := specMRRG(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := anneal.Map(ctx, spec.DFG, mg, anneal.Options{Seed: spec.Mapper.Seed})
	if err != nil {
		return nil, err
	}
	out := &JobResult{
		Engine:   EngineAnneal,
		Degraded: true,
		Status:   res.Status,
		Feasible: res.Feasible,
		Reason:   DegradedReason,
		SolveMS:  ms(time.Since(start)),
	}
	if res.Feasible {
		out.Mapping = res.Mapping.Portable()
	}
	return out, nil
}

// EngineOptions routes opts through the named exact engine (cdcl or bb)
// the way the CLIs select it. With a daemon URL every solve goes to that
// cgramapd server instead, under the same engine name, after failing
// fast if the server is not healthy within 10 s; the server then solves
// with its own knobs.
func EngineOptions(opts mapper.Options, engine, daemon string) (mapper.Options, error) {
	if err := checkEngine(engine, EngineCDCL, EngineBB); err != nil {
		return opts, err
	}
	switch {
	case daemon != "":
		client := NewClient(daemon)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := client.WaitHealthy(ctx); err != nil {
			return opts, err
		}
		opts.MapWith = client.MapFunc(engine)
	case engine == EngineBB:
		opts.Solver = bb.New()
	}
	return opts, nil
}

// specMRRG resolves the MRRG for a spec's architecture through the
// server-wide artifact cache when the spec carries one, generating from
// scratch otherwise.
func specMRRG(spec *JobSpec) (*mrrg.Graph, error) {
	if spec.Mapper.Artifacts != nil {
		return spec.Mapper.Artifacts.MRRG(spec.Arch)
	}
	return mrrg.Generate(spec.Arch)
}

func fillFromMapperResult(out *JobResult, res *mapper.Result) {
	out.Status = res.Status
	out.Feasible = res.Feasible()
	out.Reason = res.Reason
	out.Vars = res.Vars
	out.Constraints = res.Constraints
	out.BuildMS = ms(res.BuildTime)
	out.SolveMS = ms(res.SolveTime)
	if res.Mapping != nil {
		out.Mapping = res.Mapping.Portable()
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
