package cdcl

import (
	"fmt"
	"math/rand"
	"slices"

	"cgramap/internal/ilp"
)

// normalizer rewrites unit-coefficient linear sums into literal lists.
// Duplicate variables merge in a dense per-variable scratch, and one
// output buffer serves every sum, so a model's normalisation allocates
// nothing per constraint.
type normalizer struct {
	pos     []int32 // pos[v] is 1 + v's index in touched, 0 when absent
	touched []int32 // variables of the current sum, in first-appearance order
	coef    []int   // merged coefficient of each touched variable
	lits    []lit   // output buffer
}

// newNormalizer sizes a normalizer for sums of at most maxTerms terms
// over nVars variables.
func newNormalizer(nVars, maxTerms int) *normalizer {
	return &normalizer{
		pos:     make([]int32, nVars),
		touched: make([]int32, 0, maxTerms),
		coef:    make([]int, 0, maxTerms),
		lits:    make([]lit, 0, maxTerms),
	}
}

// sum merges the coefficients of terms per variable (negating them all
// when flip) and returns the merged sum as sorted literals: +1 keeps the
// positive literal, -1 becomes the negated literal, counted in negs
// (each one raises an at-most bound by one), and 0 cancels out. lits is
// valid until the next call. A merged coefficient outside {-1, 0, 1} is
// returned as bad with its variable, the first such term in model order;
// bad is 0 when the sum is unit.
func (z *normalizer) sum(terms []ilp.Term, flip bool) (lits []lit, negs int, badVar ilp.Var, bad int) {
	for _, t := range terms {
		c := int(t.Coef)
		if flip {
			c = -c
		}
		if p := z.pos[t.Var]; p != 0 {
			z.coef[p-1] += c
			continue
		}
		z.touched = append(z.touched, int32(t.Var))
		z.coef = append(z.coef, c)
		z.pos[t.Var] = int32(len(z.touched))
	}
	lits = z.lits[:0]
	for i, v := range z.touched {
		z.pos[v] = 0
		switch c := z.coef[i]; c {
		case 0:
		case 1:
			lits = append(lits, mkLit(int(v), false))
		case -1:
			lits = append(lits, mkLit(int(v), true))
			negs++
		default:
			if bad == 0 {
				badVar, bad = ilp.Var(v), c
			}
		}
	}
	z.touched, z.coef, z.lits = z.touched[:0], z.coef[:0], lits
	// Sorted for reproducible search behaviour.
	slices.Sort(lits)
	return lits, negs, badVar, bad
}

// le rewrites sum(terms) <= rhs (with flip, sum(terms) >= rhs) into
// "at most k of lits". lits is valid until the next call.
func (z *normalizer) le(terms []ilp.Term, rhs int, flip bool) (lits []lit, k int, err error) {
	lits, negs, badVar, bad := z.sum(terms, flip)
	if bad != 0 {
		return nil, 0, fmt.Errorf("cdcl: coefficient %d on variable %d not supported (unit coefficients only)", bad, int(badVar))
	}
	if flip {
		rhs = -rhs
	}
	return lits, rhs + negs, nil
}

// objectiveLits normalizes the objective for bound tightening. A
// unit-coefficient objective sum(c_i x_i) equals sum over literals plus a
// constant offset: +x contributes literal x; -x contributes literal ¬x
// with offset -1.
func objectiveLits(m *ilp.Model) (lits []lit, offset int, err error) {
	z := newNormalizer(m.NumVars(), len(m.Objective))
	lits, negs, _, bad := z.sum(m.Objective, false)
	if bad != 0 {
		return nil, 0, fmt.Errorf("cdcl: objective coefficient %d not supported (unit coefficients only)", bad)
	}
	return lits, -negs, nil
}

// compile encodes a model into a fresh solver. It returns an error for
// non-unit coefficients; a model trivially infeasible at the root comes
// back with ok cleared. A non-zero seed jitters activities and phases for
// an independent search trajectory.
func compile(m *ilp.Model, seed int64) (*solver, error) {
	s, err := load(m)
	if err != nil {
		return nil, err
	}
	s.applySeed(seed)
	return s, nil
}

// load encodes every constraint of m into a fresh, unseeded solver. The
// model's branching hints become initial state: priorities the initial
// VSIDS activities (decided first, then adapted by learning), phase
// hints the initial saved phases.
//
// Each constraint is rewritten to at-most form in model order (an
// equality yields its <= half, then its >= half) and simplified against
// the root facts derived so far; loading stops at the first root
// conflict. Every surviving half is written once, in installation order,
// into one literal arena sized from the model, which becomes the load
// arena: a clause as its size and its literals, a card as a dead entry
// (negated size) holding its bound and its literals, which the card slab
// points into. The watch lists, counted while writing, and the card slab
// and occurrence lists are then built once, exactly sized, in
// installation order. The result is the solver that installing each
// constraint with addAtMost would give (up to clause refs, which count
// from the load arena instead of the learnt chunks), at a constant number
// of allocations.
func load(m *ilp.Model) (*solver, error) {
	n := m.NumVars()
	s := newSolver(n)
	for v := 0; v < n; v++ {
		if pri := m.BranchPriority(ilp.Var(v)); pri != 0 {
			s.activity[v] = float64(pri)
		}
		s.phase[v] = m.PhaseHint(ilp.Var(v))
	}

	arenaLen, maxTerms := 0, 0
	for i, c := range m.Constraints {
		h, nt := 1, len(m.Terms(i))
		if c.Rel == ilp.EQ {
			h = 2
		}
		// A half takes at most its terms plus two header words.
		arenaLen += h * (nt + 2)
		maxTerms = max(maxTerms, nt)
	}
	z := newNormalizer(n, maxTerms)
	arena := make([]lit, arenaLen)
	count := make([]int32, 2*n) // watchers per literal
	used, nCards := 0, 0

load:
	for i, c := range m.Constraints {
		for _, flip := range [2]bool{false, true} {
			if !flip && c.Rel == ilp.GE || flip && c.Rel == ilp.LE {
				continue
			}
			lits, k, err := z.le(m.Terms(i), int(c.RHS), flip)
			if err != nil {
				return nil, fmt.Errorf("%s constraint %q: %w", m.Name, m.ConstraintName(i), err)
			}
			// Simplify against the root facts (see addAtMost): true
			// literals use up the bound, false ones drop out. The
			// survivors are written where a clause's literals go.
			out := arena[used+1 : used+1]
			for _, l := range lits {
				switch s.vals[l] {
				case lTrue:
					k--
				case lFalse:
				default:
					out = append(out, l)
				}
			}
			switch {
			case k < 0:
				s.ok = false
				break load
			case len(out) <= k:
				continue
			case k == 0:
				for _, l := range out {
					s.enqueue(l.neg(), noClause, -1)
				}
				continue
			case k == len(out)-1:
				// "not all true": a clause of negations.
				for j, l := range out {
					out[j] = l.neg()
				}
				arena[used] = lit(len(out))
				count[out[0]]++
				count[out[1]]++
				used += 1 + len(out)
				s.nClauses++
				continue
			}
			// A card: its literals move up one word to make room for
			// its bound.
			copy(arena[used+2:], out)
			arena[used], arena[used+1] = -lit(len(out)+1), lit(k)
			used += 2 + len(out)
			nCards++
		}
	}
	s.ca, s.lbase = arena[:used:used], int32(used)
	if nCards > 0 {
		s.cardLits = s.ca
	}

	// Watch lists carved from one backing array, then filled in
	// installation order; the card slab likewise.
	wbuf := make([]watcher, 2*s.nClauses)
	off := int32(0)
	for l, c := range count {
		s.watches[l] = wbuf[off : off : off+c]
		off += c
	}
	s.cards = make([]card, 0, nCards)
	for cr := int32(0); cr < int32(used); {
		h := int32(s.ca[cr])
		if h > 0 {
			s.attach(cr)
			cr += 1 + h
			continue
		}
		s.cards = append(s.cards, card{off: cr + 2, n: -h - 1, k: int32(s.ca[cr+1])})
		cr += 1 - h
	}
	s.indexCards(0)
	// Card counters: root facts derived after a card was installed may
	// already make some of its literals true.
	for _, p := range s.trail {
		s.countCards(p, 1)
	}
	return s, nil
}

// applySeed finishes a freshly loaded solver's initial search state. A
// non-zero seed randomizes the trajectory: activities get a jitter below
// 0.5, which shuffles ties without overturning the integer branch
// priorities, and saved phases start random, keeping most phase hints.
// The heap is reordered whenever activities are not uniform.
func (s *solver) applySeed(seed int64) {
	rebuild := slices.ContainsFunc(s.activity, func(a float64) bool { return a != 0 })
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		rebuild = true
		for v := range s.activity {
			s.activity[v] += rng.Float64() * 0.4
			// A fresh solver's saved phase is its hint.
			if s.phase[v] {
				// Keep hints mostly, flipping a few for diversity.
				s.phase[v] = rng.Float64() >= 0.1
			} else {
				s.phase[v] = rng.Intn(2) == 1
			}
		}
	}
	if rebuild {
		s.heap.rebuild()
	}
}

// clone copies a solver that load returned and nothing has searched or
// seeded yet, so it has no learnt chunks. The copy owns every piece of
// state the search mutates; the card literal arena and card occurrence
// lists, which stay read-only after loading (addAtMost appends past
// their length, indexCards replaces the lists), are shared with the
// original.
func (s *solver) clone() *solver {
	c := *s
	c.spare = [32][][]watcher{}
	c.ca = slices.Clone(s.ca)
	c.cards = slices.Clone(s.cards)
	c.watches = make([][]watcher, len(s.watches))
	wbuf := make([]watcher, 2*s.nClauses)
	off := 0
	for l, ws := range s.watches {
		c.watches[l] = wbuf[off : off+len(ws) : off+len(ws)]
		copy(c.watches[l], ws)
		off += len(ws)
	}
	c.vals = slices.Clone(s.vals)
	c.vd = slices.Clone(s.vd)
	c.trail = append(make([]lit, 0, cap(s.trail)), s.trail...)
	c.activity = slices.Clone(s.activity)
	c.phase = slices.Clone(s.phase)
	c.seen = make([]bool, len(s.seen))
	c.heap = varHeap{s: &c, heap: append(make([]int32, 0, cap(s.heap.heap)), s.heap.heap...), pos: slices.Clone(s.heap.pos)}
	return &c
}
