package lru

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEvictionOrder: the least recently used entry goes first, and Get
// refreshes recency.
func TestEvictionOrder(t *testing.T) {
	c := New[string](3)
	for i := 0; i < 3; i++ {
		c.Add(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i), 1)
	}
	// Touch k0 so k1 becomes the eviction victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Add("k3", "v3", 1)
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 survived eviction despite being least recently used")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if s := c.Stats(); s.Entries != 3 || s.Evictions != 1 || s.Bytes != 3 || s.Hits != 4 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 3 entries, 1 eviction, 3 bytes, 4 hits, 1 miss", s)
	}
}

// TestAddReplaces: re-adding a key replaces its value and size without
// growing the cache, and makes it most recently used.
func TestAddReplaces(t *testing.T) {
	c := New[string](2)
	c.Add("a", "old", 10)
	c.Add("b", "b", 1)
	c.Add("a", "new", 4)
	if got, _ := c.Get("a"); got != "new" {
		t.Errorf("replaced value %q, want new", got)
	}
	if s := c.Stats(); s.Entries != 2 || s.Bytes != 5 || s.Evictions != 0 {
		t.Errorf("stats = %+v after replace, want 2 entries, 5 bytes, no eviction", s)
	}
	c.Add("c", "c", 1)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived although replacing a made a the most recent")
	}
}

// TestBytesShrinkOnEviction: evicting a large entry for a small one
// takes the large one's size off the gauge.
func TestBytesShrinkOnEviction(t *testing.T) {
	c := New[int](1)
	build := func(v int, bytes int64) func() (int, int64, error) {
		return func() (int, int64, error) { return v, bytes, nil }
	}
	if _, err := c.Do("big", build(1, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("small", build(2, 10)); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Entries != 1 || s.Bytes != 10 || s.Evictions != 1 {
		t.Fatalf("stats = %+v after evicting the big entry, want 1 entry of 10 bytes", s)
	}
	// The evicted key misses and builds again; the survivor was pushed out.
	if _, err := c.Do("big", build(1, 1000)); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 3 || s.Hits != 0 || s.Bytes != 1000 {
		t.Fatalf("stats = %+v after rebuilding the evicted key, want 3 misses, 0 hits, 1000 bytes", s)
	}
}

// TestDisabled: a capacity of zero or less retains nothing; Do builds
// every time.
func TestDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[*int](capacity)
		c.Add("k", new(int), 8)
		if _, ok := c.Get("k"); ok {
			t.Errorf("cap %d: Get hit after Add", capacity)
		}
		var builds int
		build := func() (*int, int64, error) { builds++; return new(int), 8, nil }
		v1, _ := c.Do("k", build)
		v2, _ := c.Do("k", build)
		if builds != 2 || v1 == v2 {
			t.Errorf("cap %d: %d builds, shared=%v; want 2 builds of distinct values", capacity, builds, v1 == v2)
		}
		if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 || s.Evictions != 0 {
			t.Errorf("cap %d: retained %+v", capacity, s)
		}
	}
}

// doConcurrently starts n Do calls for one key whose build blocks until
// the other n-1 callers are waiting on it (or 10 s pass, so a cache that
// fails to single-flight fails the test instead of hanging it), so every
// caller but one is a waiter on the in-flight build. It returns each
// caller's result and the number of builds.
func doConcurrently(t *testing.T, c *Cache[*int], n int, fail error) ([]*int, []error, int64) {
	t.Helper()
	var builds atomic.Int64
	build := func() (*int, int64, error) {
		builds.Add(1)
		deadline := time.Now().Add(10 * time.Second)
		for c.Stats().Hits < int64(n-1) && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if fail != nil {
			return nil, 0, fail
		}
		return new(int), 8, nil
	}
	vals := make([]*int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = c.Do("k", build)
		}(i)
	}
	wg.Wait()
	return vals, errs, builds.Load()
}

// TestSingleFlight: n concurrent Do calls for one key make one build
// and n-1 hits, and all share the built value.
func TestSingleFlight(t *testing.T) {
	const n = 16
	c := New[*int](4)
	vals, errs, builds := doConcurrently(t, c, n, nil)
	for i := range vals {
		if errs[i] != nil || vals[i] != vals[0] {
			t.Fatalf("caller %d: err %v, shared=%v; want the one built value", i, errs[i], vals[i] == vals[0])
		}
	}
	if s := c.Stats(); builds != 1 || s.Misses != 1 || s.Hits != n-1 || s.Entries != 1 {
		t.Fatalf("%d builds, stats %+v; want 1 build, 1 miss, %d hits, 1 entry", builds, s, n-1)
	}
}

// TestErrorNotCached: a failed build reaches every waiter and is never
// stored; the next Do builds again.
func TestErrorNotCached(t *testing.T) {
	const n = 8
	boom := errors.New("boom")
	c := New[*int](4)
	_, errs, builds := doConcurrently(t, c, n, boom)
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err %v, want the build error", i, err)
		}
	}
	if s := c.Stats(); builds != 1 || s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("%d builds, stats %+v; want 1 build and nothing retained", builds, s)
	}
	if _, err := c.Do("k", func() (*int, int64, error) { return new(int), 8, nil }); err != nil {
		t.Fatalf("rebuild after error: %v", err)
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats %+v after rebuild, want 2 misses and 1 entry", s)
	}
}
