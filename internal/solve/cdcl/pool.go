package cdcl

import "sync"

// sharePool is the bounded exchange through which parallel workers trade
// learnt clauses, in the ManySAT tradition: workers export short learnt
// clauses (short clauses prune the most and cost the least to ship) and
// import everything their peers published at their own restart
// boundaries, when the trail is at level 0 and installing foreign
// clauses is trivially sound.
//
// The pool is a ring of the most recent entries, each tagged with the
// exporting worker: a worker's import cursor (a monotone sequence
// number) guarantees it sees each foreign clause at most once and its
// own clauses never. When the ring overflows, the oldest clauses fall
// off — a slow worker simply misses them, which costs pruning power but
// never soundness (every shared clause is a logical consequence of the
// common formula).
//
// All methods are safe for concurrent use.
type sharePool struct {
	mu      sync.Mutex
	maxLen  int         // export length cap (clauses longer are refused)
	limit   int         // ring capacity
	entries []poolEntry // entries[i] has sequence number head-len+i
	head    uint64      // sequence number one past the newest entry

	exported, refused, dropped int64
}

type poolEntry struct {
	owner int
	lits  []lit // immutable after publication
}

// newSharePool builds a pool with the given clause-length cap and ring
// capacity (both must be positive).
func newSharePool(maxLen, limit int) *sharePool {
	return &sharePool{maxLen: maxLen, limit: limit}
}

// Export publishes a clause learnt by the given worker. Clauses longer
// than the length cap are refused (reported false). The literals are
// copied: the caller's slice may be reordered by its solver afterwards.
func (p *sharePool) Export(owner int, lits []lit) bool {
	if len(lits) == 0 || len(lits) > p.maxLen {
		p.mu.Lock()
		p.refused++
		p.mu.Unlock()
		return false
	}
	cp := make([]lit, len(lits))
	copy(cp, lits)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries = append(p.entries, poolEntry{owner: owner, lits: cp})
	p.head++
	p.exported++
	if len(p.entries) > p.limit {
		drop := len(p.entries) - p.limit
		p.entries = p.entries[drop:]
		p.dropped += int64(drop)
	}
	return true
}

// Import streams every clause published since the caller's cursor that
// the caller did not export itself, and returns the advanced cursor plus
// the number of clauses delivered. fn must copy the slice if it retains
// it; returning false stops the iteration early (the cursor still
// advances past everything delivered so far, including the clause fn
// rejected).
func (p *sharePool) Import(owner int, cursor uint64, fn func(lits []lit) bool) (uint64, int) {
	p.mu.Lock()
	// Snapshot the window under the lock; the entry slices themselves
	// are immutable, so fn can run outside it.
	base := p.head - uint64(len(p.entries))
	if cursor < base {
		cursor = base // the ring overwrote entries the caller never saw
	}
	window := p.entries[cursor-base:]
	p.mu.Unlock()

	delivered := 0
	for i, e := range window {
		if e.owner == owner {
			continue
		}
		delivered++
		if !fn(e.lits) {
			return cursor + uint64(i) + 1, delivered
		}
	}
	return cursor + uint64(len(window)), delivered
}

// Stats returns the pool's export counters: clauses accepted, refused by
// the length cap, and dropped off the ring.
func (p *sharePool) Stats() (exported, refused, dropped int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exported, p.refused, p.dropped
}

// importLearnt installs a clause learnt by another worker over the same
// formula. It must be called with the trail at decision level 0, where
// literals false under the current assignment are globally false and can
// be dropped. Returns false when the clause is empty after
// simplification — a top-level conflict proving unsatisfiability.
func (s *solver) importLearnt(in []lit) bool {
	if !s.ok {
		return false
	}
	lits := s.minBuf[:0]
	for _, l := range in {
		switch s.value(l) {
		case lTrue:
			return true // satisfied at level 0: permanently redundant
		case lFalse:
			continue
		}
		lits = append(lits, l)
	}
	s.minBuf = lits
	switch len(lits) {
	case 0:
		s.ok = false
		return false
	case 1:
		return s.addFact(lits[0])
	}
	s.addLearnt(lits)
	return true
}
