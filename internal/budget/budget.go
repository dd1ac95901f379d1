// Package budget provides the process-wide solver worker budget: a
// counting semaphore of CPU tokens shared by every component that fans
// work out across goroutines (the parallel CDCL engine, the speculative
// auto-II sweep, and the service's job workers).
//
// The budget exists so that layered parallelism composes instead of
// multiplying: a daemon running W concurrent jobs, each job speculating
// over several IIs, each II solved by a clause-sharing worker gang,
// would oversubscribe the machine many times over if every layer assumed
// it owned all cores. Instead, every goroutine beyond a caller's own is
// paid for with a token from one shared pool, and a layer that finds the
// pool empty simply runs narrower (down to fully sequential) rather than
// queueing or failing. Acquisition is non-blocking by design: mapping
// work always makes progress on the caller's goroutine; tokens only add
// width.
//
// The default pool is sized to runtime.NumCPU, overridable with the
// CGRAMAP_WORKERS environment variable or SetGlobal (the -workers flags
// of cgramap, cgramapd and experiments call SetGlobal at startup).
package budget

import (
	"os"
	"runtime"
	"strconv"
	"sync"
)

// Pool is a fixed-size pool of worker tokens. The zero value is not
// usable; create pools with New. A nil *Pool is a valid "unlimited"
// pool: every TryAcquire succeeds in full (useful in tests that want
// deterministic width without consulting the machine).
type Pool struct {
	mu   sync.Mutex
	free int
	size int
	peak int // high-water mark of tokens out, for observability
}

// New returns a pool holding n tokens (n < 0 is clamped to 0: a pool
// that never grants extra width).
func New(n int) *Pool {
	if n < 0 {
		n = 0
	}
	return &Pool{free: n, size: n}
}

// Size returns the pool's total token count.
func (p *Pool) Size() int {
	if p == nil {
		return int(^uint(0) >> 1)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.size
}

// TryAcquire takes up to n tokens without blocking and returns how many
// it got (possibly 0). The caller must Release exactly that many.
func (p *Pool) TryAcquire(n int) int {
	if n <= 0 {
		return 0
	}
	if p == nil {
		return n
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > p.free {
		n = p.free
	}
	p.free -= n
	if out := p.size - p.free; out > p.peak {
		p.peak = out
	}
	return n
}

// Release returns n tokens to the pool. Releasing more tokens than were
// acquired panics: it indicates unbalanced accounting.
func (p *Pool) Release(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free += n
	if p.free > p.size {
		panic("budget: Release without matching TryAcquire")
	}
}

// InUse reports how many tokens are currently out.
func (p *Pool) InUse() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.size - p.free
}

// Peak reports the high-water mark of tokens out.
func (p *Pool) Peak() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

var (
	globalMu sync.Mutex
	global   *Pool
)

// DefaultSize is the size Global uses when SetGlobal was never called:
// the CGRAMAP_WORKERS environment variable when set to a positive
// integer, otherwise runtime.NumCPU.
func DefaultSize() int {
	if s := os.Getenv("CGRAMAP_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.NumCPU()
}

// Global returns the process-wide pool, creating it at DefaultSize on
// first use.
func Global() *Pool {
	globalMu.Lock()
	defer globalMu.Unlock()
	if global == nil {
		global = New(DefaultSize())
	}
	return global
}

// SetGlobal replaces the process-wide pool with a fresh one of n tokens.
// Call it once at startup, before solving begins: tokens out of the old
// pool are returned there, not to the new one.
func SetGlobal(n int) {
	globalMu.Lock()
	defer globalMu.Unlock()
	global = New(n)
}
