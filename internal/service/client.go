package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
)

// Client talks to a cgramapd server over its HTTP API.
//
// Transient failures — transport errors, truncated responses, and
// 429/502/503/504 answers — are retried with exponential backoff and
// jitter, honouring any server-provided Retry-After. Retrying a submit
// is safe even when the first attempt silently reached the server:
// submissions are content-addressed, so a replay deduplicates onto the
// original solve or hits its cached result. A consecutive-transport-
// failure circuit breaker makes a sick daemon's pollers fail fast (and
// back off) instead of hammering it.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8537".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// PollInterval is the status polling cadence of Wait (default 50ms,
	// jittered ±20% per poller so fleets don't thundering-herd).
	PollInterval time.Duration
	// MaxRetries bounds how many times one API call retries a transient
	// failure (default 4; negative disables retries).
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff (default 100ms).
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps a single backoff sleep (default 5s).
	RetryMaxDelay time.Duration
	// RetrySeed seeds the backoff jitter (0: a fixed default).
	RetrySeed int64
	// BreakerThreshold consecutive transport failures open the circuit
	// breaker (default 5; negative disables it). While open, calls fail
	// fast with ErrCircuitOpen until the cooldown elapses, then one
	// half-open trial is allowed through.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open (default 2s).
	BreakerCooldown time.Duration

	// Retries counts retries performed across all calls (observability).
	Retries atomic.Int64

	initOnce sync.Once
	mu       sync.Mutex // guards rng and brk
	rng      *rand.Rand
	brk      *breaker
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) init() {
	c.initOnce.Do(func() {
		seed := c.RetrySeed
		if seed == 0 {
			seed = 1
		}
		c.rng = rand.New(rand.NewSource(seed))
		if c.BreakerThreshold >= 0 {
			threshold := c.BreakerThreshold
			if threshold == 0 {
				threshold = 5
			}
			cooldown := c.BreakerCooldown
			if cooldown <= 0 {
				cooldown = 2 * time.Second
			}
			c.brk = &breaker{threshold: threshold, cooldown: cooldown}
		}
	})
}

func (c *Client) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 4
	}
	return c.MaxRetries
}

func (c *Client) nextDelay(attempt int, retryAfter time.Duration) time.Duration {
	base := c.RetryBaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := c.RetryMaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	c.mu.Lock()
	d := backoffDelay(c.rng, base, max, attempt)
	c.mu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// breakerAllow checks the circuit breaker; when closed it returns ok.
func (c *Client) breakerAllow() (time.Duration, bool) {
	if c.brk == nil {
		return 0, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.brk.allow(time.Now())
}

func (c *Client) breakerObserve(transportFailed bool) {
	if c.brk == nil {
		return
	}
	c.mu.Lock()
	if transportFailed {
		c.brk.failure(time.Now())
	} else {
		c.brk.success()
	}
	c.mu.Unlock()
}

// do performs one API call with transient-failure retries, decoding the
// response into out and converting non-2xx responses into *Error values.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	c.init()
	var blob []byte
	if body != nil {
		var err error
		if blob, err = json.Marshal(body); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if wait, ok := c.breakerAllow(); !ok {
			lastErr = &Error{Code: http.StatusServiceUnavailable,
				Message: fmt.Sprintf("%v (next trial in %v)", ErrCircuitOpen, wait.Round(time.Millisecond)),
				Err:     ErrCircuitOpen}
			if attempt >= c.maxRetries() {
				return lastErr
			}
			// Wait out the open window (bounded like any backoff sleep),
			// then the half-open trial is this loop's next iteration.
			if err := sleepCtx(ctx, c.nextDelay(attempt, wait)); err != nil {
				return lastErr
			}
			c.Retries.Add(1)
			continue
		}
		lastErr = c.once(ctx, method, path, blob, out)
		if lastErr == nil {
			return nil
		}
		retryable, retryAfter := classifyRetry(lastErr)
		if !retryable || attempt >= c.maxRetries() || ctx.Err() != nil {
			return lastErr
		}
		if err := sleepCtx(ctx, c.nextDelay(attempt, retryAfter)); err != nil {
			return lastErr
		}
		c.Retries.Add(1)
	}
}

// once performs a single round trip. Failures that never produced a
// usable HTTP response come back as *transportError (and count against
// the circuit breaker); HTTP-level errors come back as *Error.
func (c *Client) once(ctx context.Context, method, path string, blob []byte, out any) error {
	var rd io.Reader
	if blob != nil {
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if blob != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller gave up; not evidence of server sickness.
			return err
		}
		c.breakerObserve(true)
		return &transportError{err: err}
	}
	defer resp.Body.Close()
	c.breakerObserve(false)
	payload, readErr := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		var envelope struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if json.Unmarshal(payload, &envelope) == nil && envelope.Error != "" {
			msg = envelope.Error
		}
		retryAfter := 0
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if n, err := strconv.Atoi(ra); err == nil && n > 0 {
				retryAfter = n
			}
		}
		return &Error{Code: resp.StatusCode, Message: msg, RetryAfter: retryAfter}
	}
	if readErr != nil {
		// A 2xx whose body died mid-read (dropped conn, truncation) is a
		// transport failure: the request is re-runnable.
		return &transportError{err: readErr}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(payload, out); err != nil {
		// Undecodable success body: truncated or mangled in flight.
		return &transportError{err: err}
	}
	return nil
}

// Submit posts a mapping job and returns its initial status.
func (c *Client) Submit(ctx context.Context, req *JobRequest) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Result fetches a completed job's result.
func (c *Client) Result(ctx context.Context, id string) (*JobResult, error) {
	var res JobResult
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Cancel cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls until the job reaches a terminal state or ctx ends.
func (c *Client) Wait(ctx context.Context, id string) (*JobStatus, error) {
	var last *JobStatus
	err := Poll(ctx, c.PollInterval, func(ctx context.Context) (bool, error) {
		st, err := c.Job(ctx, id)
		if err != nil {
			return false, err
		}
		last = st
		return st.State.Terminal(), nil
	})
	if err != nil {
		return nil, err
	}
	return last, nil
}

// Solve submits a job, waits for it, and returns its result. On ctx
// cancellation the remote job is cancelled too (best-effort, so a
// client disappearing does not leave the server solving for nobody).
func (c *Client) Solve(ctx context.Context, req *JobRequest) (*JobResult, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		if ctx.Err() != nil {
			cancelCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			c.Cancel(cancelCtx, st.ID)
			cancel()
		}
		return nil, err
	}
	st = final
	switch st.State {
	case JobDone:
		return c.Result(ctx, st.ID)
	case JobCancelled:
		return nil, &Error{Code: 409, Message: fmt.Sprintf("job %s cancelled", st.ID)}
	default:
		return nil, &Error{Code: 500, Message: fmt.Sprintf("job %s %s: %s", st.ID, st.State, st.Error)}
	}
}

// MapFunc adapts the client to the mapper.MapFunc seam, so local
// orchestrators (cmd/experiments sweeps, MapAuto) can transparently
// offload every solve to a cgramapd server's exact engine (the job names
// none, so the server's default, cdcl, runs it). The remote mapping comes
// back in portable form and is re-verified locally by FromPortable —
// the daemon is never trusted.
func (c *Client) MapFunc() mapper.MapFunc {
	return func(ctx context.Context, g *dfg.Graph, mg *mrrg.Graph, opts mapper.Options) (*mapper.Result, error) {
		var archXML strings.Builder
		if err := mg.Arch.WriteXML(&archXML); err != nil {
			return nil, err
		}
		objective := "feasibility"
		if opts.Objective == mapper.MinimizeRouting {
			objective = "routing"
		}
		var deadlineMS int64
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); rem > 0 {
				deadlineMS = rem.Milliseconds()
			}
		}
		jr, err := c.Solve(ctx, &JobRequest{
			DFG:        g.FormatString(),
			ArchXML:    archXML.String(),
			Contexts:   mg.Contexts,
			Objective:  objective,
			DeadlineMS: deadlineMS,
			// Forward the local symmetry preference: an explicit on/off
			// wins over the server's default.
			Symmetry: opts.Symmetry.String(),
		})
		if err != nil {
			return nil, err
		}
		res := &mapper.Result{
			Status:      jr.Status,
			Reason:      jr.Reason,
			Vars:        jr.Vars,
			Constraints: jr.Constraints,
			BuildTime:   time.Duration(jr.BuildMS * float64(time.Millisecond)),
			SolveTime:   time.Duration(jr.SolveMS * float64(time.Millisecond)),
		}
		if jr.Mapping != nil {
			m, err := mapper.FromPortable(g, mg, jr.Mapping)
			if err != nil {
				return nil, fmt.Errorf("service: remote mapping failed local verification: %w", err)
			}
			res.Mapping = m
		}
		if jr.Feasible && res.Mapping == nil {
			return nil, fmt.Errorf("service: remote result claims feasible but carries no mapping")
		}
		if res.Status == ilp.Optimal || res.Status == ilp.Feasible {
			if res.Mapping == nil {
				return nil, fmt.Errorf("service: remote status %v without mapping", res.Status)
			}
		}
		return res, nil
	}
}
