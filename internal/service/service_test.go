package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cgramap/internal/anneal"
	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
)

// gridReq builds a small distinguishable job: benchmark 2x2-f on an
// n-context 2x2 grid, with variant folded into the deadline-independent
// part via contexts.
func gridReq(contexts int) *JobRequest {
	return &JobRequest{
		Benchmark: "2x2-f",
		Grid:      &arch.GridSpec{Rows: 2, Cols: 2, Interconnect: arch.Diagonal, Homogeneous: true},
		Contexts:  contexts,
	}
}

// fakeResult returns a distinguishable definitive result.
func fakeResult(tag string) *JobResult {
	return &JobResult{Status: ilp.Feasible, Feasible: true, Reason: tag, Engine: EngineCDCL}
}

// TestSingleFlightAndCache is the headline e2e test: N concurrent
// clients submit a mix of duplicate and distinct jobs, and each distinct
// instance is solved exactly once — later duplicates are answered by the
// in-flight dedup or the cache, never by a second solve. Verified both
// through the solve counter and through the exported metrics.
func TestSingleFlightAndCache(t *testing.T) {
	var solves sync.Map // fingerprint -> *int64
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s := New(Options{
		Workers:    4,
		QueueDepth: 64,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			n, _ := solves.LoadOrStore(spec.Fingerprint, new(int64))
			atomic.AddInt64(n.(*int64), 1)
			once.Do(func() { close(started) })
			<-release // hold every solve until all submissions are in
			return fakeResult(spec.Fingerprint[:8]), nil
		},
	})

	const clients = 12
	const distinct = 3 // contexts 1..3
	var wg sync.WaitGroup
	ids := make([]string, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.Submit(gridReq(1 + i%distinct))
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	<-started
	close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range ids {
		st, err := s.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobDone {
			t.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
		}
	}

	total := int64(0)
	solves.Range(func(_, v any) bool {
		n := atomic.LoadInt64(v.(*int64))
		if n != 1 {
			t.Errorf("a distinct instance was solved %d times, want exactly 1", n)
		}
		total += n
		return true
	})
	if total != distinct {
		t.Errorf("%d instances solved, want %d", total, distinct)
	}

	// Cached now: a fresh duplicate submission must not solve again.
	st, err := s.Submit(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit || st.State != JobDone {
		t.Errorf("post-completion duplicate: cache_hit=%v state=%s, want hit+done", st.CacheHit, st.State)
	}

	m := metricsText(t, s)
	wantMetric(t, m, "cgramapd_jobs_submitted_total", clients+1)
	wantMetric(t, m, "cgramapd_cache_misses_total", distinct)
	wantMetric(t, m, "cgramapd_cache_hits_total", 1)
	wantMetric(t, m, "cgramapd_singleflight_dedup_total", clients-distinct)
	wantMetric(t, m, `cgramapd_jobs_completed_total{state="done"}`, clients+1)
	wantMetric(t, m, "cgramapd_cache_entries", distinct)

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCancelPropagatesToSolverContext: DELETE on the last interested job
// cancels the solver's context; a duplicate submission keeps the solve
// alive until it too is cancelled.
func TestCancelPropagatesToSolverContext(t *testing.T) {
	running := make(chan struct{})
	observed := make(chan error, 1)
	s := New(Options{
		Workers: 1,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			close(running)
			<-ctx.Done()
			observed <- ctx.Err()
			return nil, ctx.Err()
		},
	})
	defer s.Shutdown(context.Background())

	first, err := s.Submit(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-running
	second, err := s.Submit(gridReq(1)) // dedups onto the same solve
	if err != nil {
		t.Fatal(err)
	}
	if !second.Deduped {
		t.Fatalf("duplicate of a running job not deduped: %+v", second)
	}

	if _, err := s.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-observed:
		t.Fatalf("solve cancelled while a live duplicate still wants it: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	if _, err := s.Cancel(second.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-observed:
		if err != context.Canceled {
			t.Fatalf("solver ctx ended with %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelling the last job did not cancel the solver context")
	}

	for _, id := range []string{first.ID, second.ID} {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobCancelled {
			t.Errorf("job %s state %s, want cancelled", id, st.State)
		}
	}
}

// TestClientSolveCancelled: ctx expiring while the client polls must
// surface the ctx error (not panic on the nil Wait status) and
// best-effort cancel the remote job so the server stops solving.
func TestClientSolveCancelled(t *testing.T) {
	running := make(chan struct{})
	observed := make(chan error, 1)
	s := New(Options{
		Workers: 1,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			close(running)
			<-ctx.Done()
			observed <- ctx.Err()
			return nil, ctx.Err()
		},
	})
	defer s.Shutdown(context.Background())
	// Signal the first status poll, which proves the client is past
	// Submit and inside Wait — the window the bug lived in.
	polled := make(chan struct{})
	var pollOnce sync.Once
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			pollOnce.Do(func() { close(polled) })
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.PollInterval = 5 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Solve(ctx, gridReq(1))
		errCh <- err
	}()
	<-running
	<-polled
	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Solve returned nil error after ctx cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Solve did not return after ctx cancellation")
	}
	select {
	case err := <-observed:
		if err != context.Canceled {
			t.Errorf("solver ctx ended with %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client cancellation never propagated to the solver context")
	}
}

// TestCancelledExecKeepsSuccessorInflight: a fully-cancelled exec whose
// fingerprint has since been resubmitted must not evict the successor's
// inflight entry when it (a) is skipped while queued or (b) finishes a
// running solve — otherwise later duplicates stop deduplicating.
func TestCancelledExecKeepsSuccessorInflight(t *testing.T) {
	calls := make(chan struct{}, 16)
	proceed := make(chan struct{})
	s := New(Options{
		Workers:    1,
		QueueDepth: 8,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			calls <- struct{}{}
			<-ctx.Done()
			<-proceed
			return nil, ctx.Err()
		},
	})
	defer s.Shutdown(context.Background())

	// Running variant: cancel the sole submission of a running solve, so
	// Cancel removes its inflight entry while the worker is still inside
	// Solve, then resubmit the same fingerprint.
	first, err := s.Submit(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-calls // worker inside Solve for first
	if _, err := s.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if second.Deduped {
		t.Fatalf("resubmission after full cancellation deduped onto a dead exec: %+v", second)
	}

	// Queued variant: park another fingerprint behind the busy worker,
	// cancel it, and resubmit; its first exec is skipped by the worker
	// with no attached jobs.
	queued, err := s.Submit(gridReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	requeued, err := s.Submit(gridReq(2))
	if err != nil {
		t.Fatal(err)
	}

	// Release the first (cancelled) solve: its exec completes with no
	// jobs, then the worker skips the cancelled queued exec, then starts
	// the two live resubmissions in turn.
	close(proceed)
	<-calls // worker inside Solve for second
	dup, err := s.Submit(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped {
		t.Error("duplicate of the running resubmission not deduped: the dead exec evicted its successor's inflight entry")
	}

	for _, id := range []string{second.ID, dup.ID} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	<-calls // worker inside Solve for requeued
	dup2, err := s.Submit(gridReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if !dup2.Deduped {
		t.Error("duplicate of the requeued solve not deduped: the skipped exec evicted its successor's inflight entry")
	}
	for _, id := range []string{requeued.ID, dup2.ID} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBackpressure: with workers busy and the queue full, submissions
// are rejected with a 429 error carrying Retry-After.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s := New(Options{
		Workers:    1,
		QueueDepth: 1,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			once.Do(func() { close(started) })
			<-release
			return fakeResult("bp"), nil
		},
	})
	defer func() { close(release); s.Shutdown(context.Background()) }()

	// Occupy the worker, then fill the queue: with the solve pinned, one
	// more job fits in the queue and every further submission must bounce.
	if _, err := s.Submit(gridReq(1)); err != nil {
		t.Fatal(err)
	}
	<-started
	accepted, rejected := 1, 0
	for i := 0; i < 5; i++ {
		_, err := s.Submit(gridReq(2 + i))
		switch e := err.(type) {
		case nil:
			accepted++
		case *Error:
			if e.Code != 429 {
				t.Fatalf("rejection code %d, want 429", e.Code)
			}
			if e.RetryAfter <= 0 {
				t.Error("429 without Retry-After")
			}
			rejected++
		default:
			t.Fatal(err)
		}
	}
	if accepted != 2 || rejected != 4 {
		t.Errorf("accepted %d rejected %d, want 2 and 4 (worker + queue slot)", accepted, rejected)
	}
	if got := s.Metrics.JobsRejected.Load(); got != int64(rejected) {
		t.Errorf("rejected metric %d, want %d", got, rejected)
	}
}

// TestShutdownDrains: SIGTERM-style shutdown finishes every accepted job
// and rejects new submissions, dropping nothing.
func TestShutdownDrains(t *testing.T) {
	var solved atomic.Int64
	s := New(Options{
		Workers:    2,
		QueueDepth: 16,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			time.Sleep(10 * time.Millisecond)
			solved.Add(1)
			return fakeResult("drain"), nil
		},
	})

	const jobs = 8
	ids := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		st, err := s.Submit(gridReq(1 + i)) // all distinct
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Submit(gridReq(99)); err == nil {
		t.Error("submission accepted after shutdown")
	} else if se, ok := err.(*Error); !ok || se.Code != 503 {
		t.Errorf("post-shutdown submit error %v, want 503", err)
	}
	if got := solved.Load(); got != jobs {
		t.Errorf("%d jobs solved through drain, want %d", got, jobs)
	}
	for _, id := range ids {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobDone {
			t.Errorf("job %s ended %s after drain, want done", id, st.State)
		}
	}
}

// TestHTTPEndToEnd exercises the real stack over HTTP: submit via the
// client, solve with the real CDCL mapper, fetch the result, reconstruct
// and re-verify the mapping locally, then hit the cache on resubmission.
func TestHTTPEndToEnd(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	c.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	req := &JobRequest{
		Benchmark: "2x2-f",
		Grid:      &arch.GridSpec{Rows: 2, Cols: 2, Interconnect: arch.Diagonal, Homogeneous: true},
		Contexts:  2,
	}
	res, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Mapping == nil {
		t.Fatalf("expected feasible mapping, got %+v", res)
	}

	// The client-side MapFunc path: same instance through the mapper seam,
	// reconstructing and re-verifying the portable mapping.
	g, a := mustInstance(t, req)
	mres, err := solveViaMapFunc(ctx, c, g, a)
	if err != nil {
		t.Fatal(err)
	}
	if !mres.Feasible() || mres.Mapping == nil {
		t.Fatalf("MapFunc path: expected verified feasible mapping, got %v", mres.Status)
	}
	if err := mres.Mapping.Verify(); err != nil {
		t.Fatalf("reconstructed mapping fails verification: %v", err)
	}

	// Second identical submission must be served from cache.
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit {
		t.Errorf("resubmission not a cache hit: %+v", st)
	}

	// Metrics endpoint over HTTP.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// Two hits: the MapFunc submission (same instance shipped as DFG
	// text + arch XML rather than benchmark + grid — the fingerprint
	// sees through the representation) and the explicit resubmission.
	if !strings.Contains(string(blob), "cgramapd_cache_hits_total 2") {
		t.Errorf("metrics missing cache hits:\n%s", blob)
	}

	// Unknown engine must 400 through the full stack.
	if _, err := c.Submit(ctx, &JobRequest{Benchmark: "2x2-f", Grid: req.Grid, Engine: "gurobi"}); err == nil {
		t.Error("unknown engine accepted")
	} else if se, ok := err.(*Error); !ok || se.Code != 400 {
		t.Errorf("unknown engine error %v, want 400", err)
	}

	// healthz flips to 503 once draining.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 503 {
		t.Fatalf("healthz while draining: got %d, want 503", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestFingerprintSemantics: the job fingerprint ignores the deadline and
// distinguishes engines, objectives and auto-II bounds.
func TestFingerprintSemantics(t *testing.T) {
	s := New(Options{Workers: 1, Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
		return fakeResult("fp"), nil
	}})
	defer s.Shutdown(context.Background())

	base := gridReq(2)
	fp := func(mutate func(*JobRequest)) string {
		r := *base
		if mutate != nil {
			mutate(&r)
		}
		spec, err := s.ParseRequest(&r)
		if err != nil {
			t.Fatal(err)
		}
		return spec.Fingerprint
	}

	ref := fp(nil)
	if fp(func(r *JobRequest) { r.DeadlineMS = 12345 }) != ref {
		t.Error("deadline leaked into the job fingerprint")
	}
	if fp(func(r *JobRequest) { r.Engine = EngineAnneal }) == ref {
		t.Error("engine not part of the job fingerprint")
	}
	if fp(func(r *JobRequest) { r.Objective = "routing" }) == ref {
		t.Error("objective not part of the job fingerprint")
	}
	if fp(func(r *JobRequest) { r.AutoII = 4 }) == ref {
		t.Error("auto-II bound not part of the job fingerprint")
	}
	if fp(func(r *JobRequest) { r.Contexts = 3 }) == ref {
		t.Error("context count not part of the job fingerprint")
	}
	if fp(func(r *JobRequest) { r.Symmetry = "on" }) != ref {
		t.Error("symmetry mode leaked into the job fingerprint (it never changes the answer)")
	}
}

// TestIncrementalFieldAccepted: older clients send an "incremental" job
// field, which the server no longer reads. A raw JSON job carrying it
// must still be accepted over HTTP, fingerprint like the same job without
// it, and be answered from that job's cache entry.
func TestIncrementalFieldAccepted(t *testing.T) {
	var solves atomic.Int64
	s := New(Options{Workers: 1,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			solves.Add(1)
			return fakeResult("wire"), nil
		}})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job, err := json.Marshal(gridReq(2))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) JobStatus {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			blob, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST %s: %d %s", body, resp.StatusCode, blob)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	plain := post(string(job))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, plain.ID); err != nil {
		t.Fatal(err)
	}
	old := post(`{"incremental": true, ` + string(job[1:]))
	if old.Fingerprint != plain.Fingerprint {
		t.Errorf("fingerprint with incremental field = %s, without = %s", old.Fingerprint, plain.Fingerprint)
	}
	if !old.CacheHit {
		t.Errorf("job with incremental field missed the cache: %+v", old)
	}
	if n := solves.Load(); n != 1 {
		t.Errorf("solves = %d, want 1", n)
	}
}

// TestKnobThreading: the server's speed knobs reach every job's spec, a
// request's explicit symmetry mode overrides the server's, and every job
// shares the one server-wide artifact cache.
func TestKnobThreading(t *testing.T) {
	specs := make(chan *JobSpec, 2)
	s := New(Options{Workers: 1, SolveWorkers: 3, Seed: 5, Symmetry: mapper.SymmetryOff,
		ArtifactCacheEntries: 4,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			specs <- spec
			return fakeResult("knobs"), nil
		}})
	defer s.Shutdown(context.Background())
	var cache *mapper.ArtifactCache
	for i, sym := range []string{"", "on"} {
		req := gridReq(i + 1) // distinct instances: symmetry is not fingerprinted
		req.Symmetry = sym
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := s.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		cancel()
		mo := (<-specs).Mapper
		want := mapper.SymmetryOff
		if sym == "on" {
			want = mapper.SymmetryOn
		}
		if i == 0 {
			cache = mo.Artifacts
		}
		if mo.Workers != 3 || mo.Seed != 5 || mo.Symmetry != want || mo.Artifacts == nil ||
			mo.Artifacts != cache || mo.Objective != mapper.Feasibility {
			t.Errorf("symmetry %q: spec options %+v", sym, mo)
		}
	}
}

// TestArtifactMetrics: two real solves on one fabric share its MRRG, and
// /metrics reports both artifact classes. cgrabench's service workload
// reads the mrrg hit and miss counters for its cache-hit fraction.
func TestArtifactMetrics(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())
	for _, kernel := range []string{"2x2-f", "accum"} {
		req := gridReq(2) // both kernels on one fabric at one II
		req.Benchmark = kernel
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		st, err = s.Wait(ctx, st.ID)
		cancel()
		if err != nil || st.State != JobDone {
			t.Fatalf("%s: state %v, err %v", kernel, st, err)
		}
	}
	values := map[string]int64{}
	for _, line := range strings.Split(metricsText(t, s), "\n") {
		var v int64
		if name, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "cgramapd_artifact_") {
			if _, err := fmt.Sscan(val, &v); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			values[name] = v
		}
	}
	for _, class := range []string{"mrrg", "template"} {
		for _, series := range []string{"hits_total", "misses_total", "entries", "bytes"} {
			name := "cgramapd_artifact_" + class + "_" + series
			if _, ok := values[name]; !ok {
				t.Errorf("%s absent from /metrics", name)
			}
		}
		if b := values["cgramapd_artifact_"+class+"_bytes"]; b <= 0 {
			t.Errorf("cgramapd_artifact_%s_bytes = %d, want > 0", class, b)
		}
	}
	if h, m := values["cgramapd_artifact_mrrg_hits_total"], values["cgramapd_artifact_mrrg_misses_total"]; h < 1 || m < 1 {
		t.Errorf("mrrg hits %d, misses %d; want at least 1 of each", h, m)
	}
}

// TestAnnealJobUsesServerSeed: the server's seed reaches an anneal job,
// which answers with the mapping anneal.Map gives for that seed.
func TestAnnealJobUsesServerSeed(t *testing.T) {
	s := New(Options{Workers: 1, Seed: 5})
	defer s.Shutdown(context.Background())
	req := gridReq(2)
	req.Engine = EngineAnneal
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	got, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	g, a := mustInstance(t, req)
	mg, err := mrrg.Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := anneal.Map(ctx, g, mg, anneal.Options{Seed: 5})
	if err != nil || !want.Feasible {
		t.Fatalf("reference anneal: %v, feasible %v", err, want != nil && want.Feasible)
	}
	if !reflect.DeepEqual(got.Mapping, want.Mapping.Portable()) {
		t.Errorf("anneal job mapping differs from anneal.Map with seed 5:\n got %+v\nwant %+v", got.Mapping, want.Mapping.Portable())
	}
}

// TestUnknownNotCached: an Unknown (budget-limited) answer must not be
// served to a later submission.
func TestUnknownNotCached(t *testing.T) {
	var calls atomic.Int64
	s := New(Options{Workers: 1, Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
		calls.Add(1)
		return &JobResult{Status: ilp.Unknown, Reason: "budget"}, nil
	}})
	defer s.Shutdown(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		st, err := s.Submit(gridReq(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		if st.CacheHit {
			t.Fatal("Unknown result served from cache")
		}
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("%d solves for two Unknown submissions, want 2 (no caching)", got)
	}
}

// runCached submits a gridReq(contexts) job, waits for it, and reports
// whether the result cache answered it.
func runCached(t *testing.T, s *Server, contexts int) bool {
	t.Helper()
	st, err := s.Submit(gridReq(contexts))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	return st.CacheHit
}

// TestResultCacheLRU: CacheEntries bounds the result cache, and a cache
// hit refreshes recency, so the least recently used result is the one
// solved again.
func TestResultCacheLRU(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: 2, Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
		return fakeResult(spec.Fingerprint[:8]), nil
	}})
	defer s.Shutdown(context.Background())
	for _, step := range []struct {
		contexts int
		hit      bool
	}{
		{1, false}, {2, false}, // cache: 2, 1
		{1, true},  // refreshes 1: cache 1, 2
		{3, false}, // evicts 2: cache 3, 1
		{2, false}, // evicts 1: cache 2, 3
		{3, true},
	} {
		if got := runCached(t, s, step.contexts); got != step.hit {
			t.Fatalf("contexts %d: cache hit %v, want %v", step.contexts, got, step.hit)
		}
	}
	wantMetric(t, metricsText(t, s), "cgramapd_cache_entries", 2)
}

// TestResultCacheDisabled: a negative CacheEntries stores no result, so
// a repeated job is solved again.
func TestResultCacheDisabled(t *testing.T) {
	var calls atomic.Int64
	s := New(Options{Workers: 1, CacheEntries: -1, Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
		calls.Add(1)
		return fakeResult("uncached"), nil
	}})
	defer s.Shutdown(context.Background())
	for i := 0; i < 2; i++ {
		if runCached(t, s, 1) {
			t.Fatal("disabled result cache answered a job")
		}
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("%d solves for two submissions, want 2", got)
	}
	wantMetric(t, metricsText(t, s), "cgramapd_cache_entries", 0)
}

// TestPortfolioEngineRejected: a job naming a removed engine (the
// portfolio, or the LP branch and bound) gets a 400 over HTTP whose
// message names the engine and its replacements, and Submit reports the
// ErrEngineRemoved sentinel.
func TestPortfolioEngineRejected(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, engine := range []string{"bb", "portfolio"} {
		req := gridReq(2)
		req.Engine = engine
		var serr *Error
		if _, err := s.Submit(req); !errors.Is(err, ErrEngineRemoved) || !errors.As(err, &serr) || serr.Code != http.StatusBadRequest {
			t.Errorf("%s job: Submit error %v, want a 400 wrapping ErrEngineRemoved", engine, err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var msg struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s job: HTTP %d, want 400", engine, resp.StatusCode)
		}
		for _, want := range []string{`"` + engine + `"`, `"cdcl"`, "-solve-workers", `"anneal"`} {
			if !strings.Contains(msg.Error, want) {
				t.Errorf("%s job: message %q does not name %s", engine, msg.Error, want)
			}
		}
	}
}

// TestSolverPanicContained: a solve that panics, in the exact lane or
// the degraded lane, fails its job with the panic value and logs the
// stack. Nothing is cached, the busy-worker gauge returns to zero, and
// the lane keeps serving.
func TestSolverPanicContained(t *testing.T) {
	var (
		logMu  sync.Mutex
		logged strings.Builder
		boomFP string
		solves atomic.Int64
	)
	block := make(chan struct{})
	running := make(chan struct{}, 1)
	s := New(Options{
		Workers:           1,
		QueueDepth:        1,
		DegradeOnOverload: true,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			fmt.Fprintf(&logged, format+"\n", args...)
		},
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			solves.Add(1)
			switch {
			case spec.Fingerprint == boomFP:
				panic("boom")
			case spec.Arch.Contexts == 3:
				running <- struct{}{}
				<-block
			}
			return fakeResult("ok"), nil
		},
		SolveDegraded: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			panic("degraded boom")
		},
	})
	defer func() { close(block); s.Shutdown(context.Background()) }()
	spec, err := s.ParseRequest(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	boomFP = spec.Fingerprint

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	run := func(req *JobRequest) *JobStatus {
		t.Helper()
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		final, err := s.Wait(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return final
	}

	for i := 0; i < 2; i++ {
		if st := run(gridReq(1)); st.State != JobFailed || st.Error != "solver panicked: boom" || st.CacheHit {
			t.Errorf("panicking job %d: %+v", i, st)
		}
	}
	if n := solves.Load(); n != 2 {
		t.Errorf("solves = %d, want 2 (a panicked job must not be cached)", n)
	}
	if st := run(gridReq(2)); st.State != JobDone {
		t.Errorf("job after a panic: %+v", st)
	}
	if n := s.Metrics.WorkersBusy.Load(); n != 0 {
		t.Errorf("WorkersBusy = %d after the solves ended, want 0", n)
	}

	// Saturate the exact lane (one running, one queued) so the next job
	// goes to the degraded lane, whose solve panics too.
	if _, err := s.Submit(gridReq(3)); err != nil {
		t.Fatal(err)
	}
	<-running
	if _, err := s.Submit(gridReq(4)); err != nil {
		t.Fatal(err)
	}
	if st := run(gridReq(5)); !st.Degraded || st.State != JobFailed || st.Error != "solver panicked: degraded boom" {
		t.Errorf("panicking degraded job: %+v", st)
	}

	logMu.Lock()
	defer logMu.Unlock()
	if out := logged.String(); !strings.Contains(out, "solver panicked: boom") || !strings.Contains(out, "runtime/debug.Stack") {
		t.Errorf("panic or stack not logged:\n%s", out)
	}
}

// mustInstance rebuilds the DFG and architecture a JobRequest names, the
// way a local orchestrator holding in-memory values would have them.
func mustInstance(t *testing.T, req *JobRequest) (*dfg.Graph, *arch.Arch) {
	t.Helper()
	g, err := bench.Get(req.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	spec := *req.Grid
	if spec.Contexts == 0 {
		spec.Contexts = req.Contexts
	}
	a, err := arch.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

// solveViaMapFunc drives the client through the mapper.MapWith seam.
func solveViaMapFunc(ctx context.Context, c *Client, g *dfg.Graph, a *arch.Arch) (*mapper.Result, error) {
	mg, err := mrrg.Generate(a)
	if err != nil {
		return nil, err
	}
	return mapper.Map(ctx, g, mg, mapper.Options{MapWith: c.MapFunc()})
}

func metricsText(t *testing.T, s *Server) string {
	t.Helper()
	var sb strings.Builder
	if err := s.Metrics.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func wantMetric(t *testing.T, text, name string, want int) {
	t.Helper()
	needle := fmt.Sprintf("%s %d\n", name, want)
	if !strings.Contains(text, needle) {
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
				t.Errorf("metric %s: got %q, want %d", name, line, want)
				return
			}
		}
		t.Errorf("metric %s absent, want %d", name, want)
	}
}

// TestDaemonOptions: the sweep tools' daemon hookup leaves options
// alone without a URL and routes every solve through a healthy daemon
// with one.
func TestDaemonOptions(t *testing.T) {
	base := mapper.Options{Seed: 3}
	if o, err := DaemonOptions(base, ""); err != nil || o.Solver != nil || o.MapWith != nil || o.Seed != 3 {
		t.Errorf("local: %+v, %v", o, err)
	}
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if o, err := DaemonOptions(base, ts.URL); err != nil || o.MapWith == nil || o.Solver != nil {
		t.Errorf("daemon: %+v, %v", o, err)
	}
}

// TestRetainedJobsReleaseExec: a job that reached a terminal state —
// completed, cancelled, or deduplicated and completed — keeps status and
// result only. Its record no longer references the solve (and through
// it the parsed spec and context), so the retained job history does not
// pin a parsed DFG and architecture per finished job.
func TestRetainedJobsReleaseExec(t *testing.T) {
	release := make(chan struct{})
	s := New(Options{
		Workers:    1,
		QueueDepth: 8,
		Solve: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
			<-release
			return fakeResult(spec.Fingerprint[:8]), nil
		},
	})
	defer s.Shutdown(context.Background())
	attached := func(id string) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobs[id].ex != nil
	}

	first, err := s.Submit(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	dup, err := s.Submit(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := s.Submit(gridReq(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(gridReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped || !dropped.Deduped {
		t.Fatalf("duplicates not deduplicated: %+v %+v", dup, dropped)
	}
	for _, id := range []string{dropped.ID, queued.ID} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
		if attached(id) {
			t.Errorf("cancelled job %s still references its solve", id)
		}
	}
	if !attached(first.ID) || !attached(dup.ID) {
		t.Fatal("live jobs lost their solve")
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range []string{first.ID, dup.ID} {
		st, err := s.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobDone {
			t.Fatalf("job %s ended %s", id, st.State)
		}
		if attached(id) {
			t.Errorf("completed job %s still references its solve", id)
		}
	}
	if res, err := s.Result(dup.ID); err != nil || res.Reason != first.ID[len(first.ID)-8:] {
		t.Errorf("deduplicated job result %+v, %v", res, err)
	}
}
