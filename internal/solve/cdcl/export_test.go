package cdcl

import (
	"context"

	"cgramap/internal/ilp"
)

// NewCapped returns a one-lane Engine with the given seed whose search
// stops after capConflicts conflicts (0: no cap) and whose restarts
// reduce the clause database above maxLearnts learnt clauses (0: the
// default limit), for the external tests and benchmarks.
func NewCapped(seed, capConflicts int64, maxLearnts int) *Engine {
	return &Engine{Seed: seed, conflictCap: capConflicts, maxLearnts: maxLearnts}
}

// Load runs the model loader alone.
func Load(m *ilp.Model) error {
	_, err := load(m)
	return err
}

// PrepareSearch loads m, seeds it and probes it at the root as a
// one-lane Engine does, and returns the search that would follow,
// capped at capConflicts conflicts; the search reports the conflicts
// and propagations it counted.
func PrepareSearch(m *ilp.Model, seed, capConflicts int64) (search func() (conflicts, propagations int64), err error) {
	s, err := compile(m, seed)
	if err != nil {
		return nil, err
	}
	s.conflictCap = capConflicts
	if s.ok {
		probe(context.Background(), s, probeCandidates(m))
	}
	c0, p0 := s.conflicts, s.propagations
	return func() (int64, int64) {
		s.search(context.Background())
		return s.conflicts - c0, s.propagations - p0
	}, nil
}
