package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/dfg"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/service"
	"cgramap/internal/workload"
)

const (
	serviceDeadline = 2 * time.Second
	// servicePool fresh requests are generated up front; a stream that
	// uses them all ends early.
	servicePool = 2048
	// servicePoll is the clients' status polling interval. The default
	// 50 ms would quantise every latency to the poll grid.
	servicePoll = 5 * time.Millisecond
)

// serviceLoad is mapping as a service: an in-process job server behind
// an HTTP listener on loopback, under two closed-loop clients. Every
// other request is a fresh job: fixed-II generated kernels on the eight
// paper fabrics and auto-II ladders on the two 3x3 fabrics, in a fixed
// 4:1 rotation over fabrics and kernel sizes so that every seed asks for
// the same mix. The requests in between re-submit earlier ones, drawn
// Zipf(1.1) with the most recent first. Repeats exercise the result
// cache, single-flight dedup and the wire format; fresh jobs exercise
// admission, the queue, the artifact cache and the parallel solver gang.
// It is the only workload that runs cdcl.ParallelEngine. The seed draws
// the kernels and the repeats.
//
// The mix is an assumption, not a measurement: no request log of a
// deployed job server exists to take the repeat share, the Zipf exponent
// or the kernel sizes from. The cache hit and dedup rates this traffic
// produces follow from those choices and say nothing about real traffic.
type serviceLoad struct {
	cfg   *config
	fresh []*request
}

// request is one fresh job and the inputs needed to check its answer.
type request struct {
	id  int // position in the pool
	job *service.JobRequest
	g   *dfg.Graph
	a   *arch.Arch // the fabric at the job's context count (auto-II: 1)
}

// outcome is one request as the client saw it.
type outcome struct {
	r        *request
	fresh    bool
	start    time.Time
	end      time.Time
	status   *service.JobStatus
	result   *service.JobResult
	rejected bool // answered 429
	err      error
}

func (w *serviceLoad) clients() int { return min(2, runtime.NumCPU()) }

func (w *serviceLoad) setup(cfg *config) error {
	w.cfg = cfg
	rng := rand.New(rand.NewSource(cfg.seed))
	fabrics := map[string]*arch.Arch{}
	paper := arch.PaperArchitectures()
	fabricCycle := append(append([]arch.GridSpec(nil), paper...), miniiFabrics...)
	pool := servicePool
	if cfg.smoke {
		pool = 10
	}
	for i := 0; i < pool; i++ {
		slot := i % len(fabricCycle)
		spec := fabricCycle[slot]
		auto := slot >= len(paper)
		// Kernels of 3 to 6 operations (an assumed size, like the rest of
		// the mix) decide well inside the deadline, so the traffic
		// measures the service rather than search luck.
		n := 3 + i/len(fabricCycle)%4
		g, err := workload.Kernel(workload.Gen, n, rng.Int63())
		if err != nil {
			return err
		}
		a := fabrics[spec.Name()]
		if a == nil {
			if a, err = arch.Grid(spec); err != nil {
				return err
			}
			fabrics[spec.Name()] = a
		}
		job := &service.JobRequest{DFG: g.FormatString(), Grid: &spec, DeadlineMS: serviceDeadline.Milliseconds()}
		if auto {
			job.AutoII = miniiMaxII
		}
		w.fresh = append(w.fresh, &request{i, job, g, a})
	}
	s, err := w.start(context.Background())
	if err != nil {
		return err
	}
	return s.stop(context.Background())
}

// server is a job server behind an HTTP listener on loopback.
type server struct {
	svc *service.Server
	ts  *httptest.Server
	hc  *http.Client
}

// start brings up a server with cgramapd's cache defaults, and returns
// once it answers its health check. One job worker whose solver gang is
// nproc wide keeps the working goroutines at nproc; nproc workers each
// running an nproc-wide gang would put twice as many lanes as CPUs in
// contention.
func (w *serviceLoad) start(ctx context.Context) (*server, error) {
	svc := service.New(service.Options{Workers: 1, SolveWorkers: runtime.NumCPU(), CacheEntries: 512, ArtifactCacheEntries: 64})
	s := &server{
		svc: svc,
		ts:  httptest.NewServer(svc.Handler()),
		hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: w.clients(), MaxIdleConnsPerHost: w.clients()}},
	}
	hctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := w.client(s).WaitHealthy(hctx); err != nil {
		s.stop(ctx)
		return nil, err
	}
	return s, nil
}

// stop drains the server's accepted jobs and closes its listener.
func (s *server) stop(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err := s.svc.Shutdown(dctx)
	s.ts.Close()
	s.hc.CloseIdleConnections()
	return err
}

func (w *serviceLoad) client(s *server) *service.Client {
	c := service.NewClient(s.ts.URL)
	c.HTTPClient = s.hc
	c.PollInterval = servicePoll
	// A 429 or a transport error must surface as a failure, not be
	// retried away.
	c.MaxRetries = -1
	return c
}

func (w *serviceLoad) measure(ctx context.Context, budget time.Duration, tr *tracer) (*phase, error) {
	srv, err := w.start(ctx)
	if err != nil {
		return nil, err
	}
	stream := w.stream()
	var mu sync.Mutex
	var outs []*outcome
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for i := 0; i < w.clients(); i++ {
		c := w.client(srv)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r, fresh, ok := stream()
				if !ok {
					return
				}
				o := do(ctx, c, r, fresh)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p := &phase{wall: time.Since(start)}

	if tr != nil {
		w.trace(tr, outs)
		if err := cacheStats(ctx, srv, tr); err != nil {
			srv.stop(ctx)
			return nil, err
		}
	}
	if err := srv.stop(ctx); err != nil {
		return nil, err
	}
	w.check(outs, p)
	return p, nil
}

// stream returns the request generator the clients share: the i-th call
// yields the i-th request of the seeded stream, whichever client asks.
func (w *serviceLoad) stream() func() (*request, bool, bool) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(w.cfg.seed + 1))
	var history []*request
	sent := 0
	return func() (*request, bool, bool) {
		mu.Lock()
		defer mu.Unlock()
		if w.cfg.smoke && sent >= 10 {
			return nil, false, false
		}
		sent++
		if sent%2 == 0 {
			z := rand.NewZipf(rng, 1.1, 1, uint64(len(history)-1))
			return history[len(history)-1-int(z.Uint64())], false, true
		}
		if len(history) == len(w.fresh) {
			return nil, false, false
		}
		r := w.fresh[len(history)]
		history = append(history, r)
		return r, true, true
	}
}

// do sends one request and waits for its answer: submit, poll the
// status, fetch the result.
func do(ctx context.Context, c *service.Client, r *request, fresh bool) *outcome {
	o := &outcome{r: r, fresh: fresh, start: time.Now()}
	rctx, cancel := context.WithTimeout(ctx, 5*serviceDeadline)
	defer cancel()
	defer func() { o.end = time.Now() }()
	st, err := c.Submit(rctx, r.job)
	if err != nil {
		var se *service.Error
		o.rejected = errors.As(err, &se) && se.Code == http.StatusTooManyRequests
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	if o.status, err = c.Wait(rctx, st.ID); err != nil {
		o.err = fmt.Errorf("wait: %w", err)
		return o
	}
	if o.status.State != service.JobDone {
		o.err = fmt.Errorf("job %s %s: %s", st.ID, o.status.State, o.status.Error)
		return o
	}
	if o.result, err = c.Result(rctx, st.ID); err != nil {
		o.err = fmt.Errorf("result: %w", err)
	}
	return o
}

// check verifies every answer after the stream: each mapping is rebuilt
// from its portable form against a locally generated MRRG and simulated,
// and repeated requests must agree with each other.
func (w *serviceLoad) check(outs []*outcome, p *phase) {
	mrrgs := map[string]*mrrg.Graph{}
	marks := map[*request]string{}
	for _, o := range outs {
		rec := op{dur: o.end.Sub(o.start), budget: serviceDeadline, err: o.err}
		if o.fresh {
			rec.input = strconv.Itoa(o.r.id)
		}
		if o.err == nil {
			rec.decided = o.result.Proven
			rec.err = w.verify(o, mrrgs)
		}
		if rec.err == nil && rec.decided {
			mark := o.result.Status.Mark()
			if prev, ok := marks[o.r]; ok && prev != mark {
				rec.err = fmt.Errorf("%s: answered %s, earlier %s", o.r.g.Name, mark, prev)
			}
			marks[o.r] = mark
		}
		p.add(rec)
	}
}

// verify checks one answer's mapping with mapper.FromPortable and a
// simulation; an answer claiming feasibility must carry one.
func (w *serviceLoad) verify(o *outcome, mrrgs map[string]*mrrg.Graph) error {
	res := o.result
	if !res.Feasible {
		return nil
	}
	if res.Mapping == nil {
		return fmt.Errorf("%s: feasible answer without a mapping", o.r.g.Name)
	}
	a := *o.r.a
	if res.II > 0 {
		a.Contexts = res.II
	}
	key := fmt.Sprintf("%s@%d", a.Name, a.Contexts)
	mg := mrrgs[key]
	if mg == nil {
		var err error
		if mg, err = mrrg.Generate(&a); err != nil {
			return err
		}
		mrrgs[key] = mg
	}
	m, err := mapper.FromPortable(o.r.g, mg, res.Mapping)
	if err != nil {
		return fmt.Errorf("%s on %s: %w", o.r.g.Name, key, err)
	}
	if err := simulate(nil, 0, 0, m); err != nil {
		return fmt.Errorf("%s on %s: %w", o.r.g.Name, key, err)
	}
	return nil
}

// trace turns each request into a client-side span with the server's
// own timings beneath it: queue wait and run from the job status, build
// and solve from the job result. The request span's self time is the
// client's overhead: HTTP, JSON and polling.
func (w *serviceLoad) trace(tr *tracer, outs []*outcome) {
	for i, o := range outs {
		trace := i + 1
		root := tr.record(trace, 0, "request", o.start, o.end, nil)
		tr.add("service.requests", 1)
		if o.rejected {
			tr.add("service.shed", 1)
		}
		st := o.status
		if st == nil || st.StartedAt.IsZero() || st.FinishedAt.IsZero() {
			continue
		}
		if st.CacheHit {
			tr.add("service.hits", 1)
			continue
		}
		if st.Deduped {
			tr.add("service.dedups", 1)
		}
		// A deduplicated job joins a solve that started before it was
		// submitted; only the part of each interval after its own
		// submission belongs to it.
		at := func(t time.Time) time.Time {
			if t.Before(st.SubmittedAt) {
				return st.SubmittedAt
			}
			return t
		}
		started := at(st.StartedAt)
		tr.record(trace, root, "service.queue", st.SubmittedAt, started, nil)
		run := tr.record(trace, root, "service.run", started, st.FinishedAt, nil)
		if res := o.result; res != nil {
			build := st.StartedAt.Add(time.Duration(res.BuildMS * float64(time.Millisecond)))
			solve := build.Add(time.Duration(res.SolveMS * float64(time.Millisecond)))
			tr.record(trace, run, "service.build", started, at(build), nil)
			tr.record(trace, run, "service.solve", at(build), at(solve), nil)
		}
	}
}

// cacheStats reads the server's artifact-cache counters from its
// /metrics endpoint.
func cacheStats(ctx context.Context, s *server, tr *tracer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		switch name {
		case "cgramapd_artifact_mrrg_hits_total":
			tr.add("mrrg.cache_hits", v)
		case "cgramapd_artifact_mrrg_misses_total":
			tr.add("mrrg.cache_misses", v)
		}
	}
	return sc.Err()
}
