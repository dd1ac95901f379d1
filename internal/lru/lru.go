// Package lru is the one bounded, content-addressed cache of the
// repository: an LRU of string-keyed values with single-flighted builds.
// The mapper's MRRG and formulation-template stores and the service's
// job result cache are all instances of Cache.
//
// Keys are content hashes of immutable inputs, so an entry never goes
// stale and there is no invalidation: the only eviction is capacity
// pressure, least recently used first. Cached values are shared between
// callers and must be treated as immutable.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a concurrency-safe LRU of at most a fixed number of entries.
// Values are stored with Add or built on a miss by Do; concurrent Do
// misses for one key share a single build.
type Cache[V any] struct {
	mu       sync.Mutex
	cap      int
	order    *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight[V]

	hits, misses, evictions int64
	bytes                   int64
}

type entry[V any] struct {
	key   string
	v     V
	bytes int64
}

type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// New returns a cache bounded to capacity entries. A zero or negative
// capacity retains nothing: Get always misses and Do always builds,
// though concurrent Do calls for one key still share one build.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		cap:      capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight[V]),
	}
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	// Bytes is the sum of the size estimates given for the entries
	// currently retained.
	Bytes int64
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.order.Len(), Bytes: c.bytes}
}

// Get returns the value stored under key and refreshes its recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.lookup(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Add stores v under key with the given size estimate, replacing any
// value already there, and evicts the least recently used entries over
// capacity.
func (c *Cache[V]) Add(key string, v V, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, v, bytes)
}

// Do returns the value stored under key, or calls build to make it,
// stores it with the size estimate build returns, and returns it. While
// one build for a key runs, further Do calls for that key wait for it
// instead of building again, and count as hits. A build error reaches
// every waiter and is never stored, so the next Do builds afresh.
func (c *Cache[V]) Do(key string, build func() (V, int64, error)) (V, error) {
	c.mu.Lock()
	if v, ok := c.lookup(key); ok {
		c.hits++
		c.mu.Unlock()
		return v, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-fl.done
		return fl.v, fl.err
	}
	c.misses++
	fl := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	var bytes int64
	fl.v, bytes, fl.err = build()

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.add(key, fl.v, bytes)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.v, fl.err
}

// lookup returns key's value and marks it most recently used. c.mu must
// be held.
func (c *Cache[V]) lookup(key string) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).v, true
}

// add stores an entry and evicts down to capacity. c.mu must be held.
func (c *Cache[V]) add(key string, v V, bytes int64) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[V])
		c.bytes += bytes - e.bytes
		e.v, e.bytes = v, bytes
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&entry[V]{key: key, v: v, bytes: bytes})
	c.bytes += bytes
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		e := oldest.Value.(*entry[V])
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.evictions++
	}
}
