package cdcl

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"sort"
)

// Clauses live in literal arenas, each clause a header word holding its
// size followed by its literals; the watched literals are the first two.
// A clause is referred to by one int32 (its ref): below lbase, the
// header's offset in the load arena ca, which holds the model's clauses;
// from lbase on, a chunk index and an offset in the learnt chunks lca,
// which hold every clause added after loading. A chunk holds 1<<chunkBits
// words, more than nVars+1, so any clause fits (it has at most one
// literal per variable) and none straddles two chunks, and the chunks
// never move: the arenas grow without copying. A deleted clause's header
// is negated until compact drops it.

// card is an at-most-k constraint over literals: sum(lits true) <= k.
// Its literals are cardLits[off:off+n]; count tracks how many of them are
// currently true.
type card struct {
	off, n int32
	k      int32
	count  int32
}

// learnt is a learnt clause's ref and its activity.
type learnt struct {
	cr  int32
	act float64
}

// watcher is one entry of a watch list: a clause ref and a blocker
// literal whose truth satisfies the clause. A binary clause's watcher
// holds ^ref (negative) and the clause's other literal as its blocker,
// so propagation decides it from the watcher alone.
type watcher struct {
	c       int32
	blocker lit
}

// varData records how a variable was assigned: its decision level and
// the clause (cl) or card (cd) that implied it, or noClause and -1 for
// decisions and facts.
type varData struct {
	level, cl, cd int32
}

// noClause is the clause ref of "no clause" (a decision, a fact, or a
// card reason).
const noClause int32 = -1

// solver is the CDCL core. It is not safe for concurrent use.
//
// Memory layout: clauses live in literal arenas (MiniSat's clause
// allocator without the pointers: the load arena ca and the learnt
// chunks lca), card literals in another (cardLits; for a loaded model,
// the load arena itself, see load), and every constraint is referred to
// by a ref or an index. So the arenas, the card and learnt slabs and
// what the propagation loop touches per literal and per variable — watch
// entries, card occurrence lists, values, reasons — hold no pointers:
// the collector neither scans them nor puts write barriers on them. The
// arenas grow by whole chunks and compact in place, never by copying
// into a larger array, so a long search holds its learnt clauses once,
// not twice while an arena doubles. A binary clause's watchers carry its
// other literal, so the loop decides a binary clause without reading the
// arena, and a literal in no card (most of them) skips the card
// bookkeeping on one flag (inCard).
type solver struct {
	nVars int
	ok    bool // false once a top-level conflict is derived

	ca        []lit   // load arena: the model's clauses (and its cards' literals)
	lca       [][]lit // learnt chunks: learnts and clauses added after loading
	lbase     int32   // refs from lbase on address lca
	chunkBits int
	nClauses  int // problem (non-learnt) clauses
	learnts   []learnt
	cards     []card
	cardLits  []lit // card literal arena: appended to, never rewritten

	// watches[l] lists clauses watching literal l, inspected when l
	// becomes false.
	watches [][]watcher
	// spare[k] holds watch arrays of capacity at least 1<<k that lists
	// have outgrown, for the next list that grows to that capacity.
	spare [32][][]watcher
	// occ[occStart[l]:occStart[l+1]] lists the cards containing literal
	// l, in installation order (see cardsOf); inCard[l] reports whether
	// that list is non-empty.
	occStart []int32
	occ      []int32
	inCard   []bool

	vals     []lbool   // vals[l] is literal l's value
	vd       []varData // per variable: level and reason of its assignment
	trail    []lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	heap     varHeap
	phase    []bool
	seen     []bool

	claInc     float64
	maxLearnts int

	// Diversification parameters. The defaults reproduce the historical
	// single-threaded search exactly; a gang wider than one varies them
	// per worker so that it explores genuinely different trajectories
	// (ManySAT-style portfolio diversification).
	varDecay     float64 // VSIDS decay: varInc /= varDecay per conflict
	restartScale int64   // Luby restart unit, in conflicts

	// conflictCap, when positive, ends search with lUndef once that many
	// conflicts are counted (a test seam; see Engine.conflictCap).
	conflictCap int64

	// Clause-sharing hooks (nil in a one-lane gang). onLearn is
	// invoked with every learnt clause, immediately after conflict
	// analysis; the callee must copy the slice if it retains it (it is
	// the solver's conflict-analysis scratch). onRestart is
	// invoked at every restart boundary with the trail at level 0; it
	// returns false when an imported clause produced a top-level
	// conflict, proving the formula unsatisfiable.
	onLearn   func(lits []lit)
	onRestart func() bool

	// Conflict-analysis scratch, reused across conflicts and restarts
	// (the learnt clause is copied into the arena, so these grow to the
	// working-set high-water mark once and then allocate nothing per
	// conflict; importLearnt borrows minBuf between conflicts).
	learntBuf []lit
	origBuf   []lit
	reasonBuf []lit
	minBuf    []lit

	conflicts, decisions, propagations, restarts int64
}

func newSolver(nVars int) *solver {
	s := &solver{
		nVars:        nVars,
		ok:           true,
		watches:      make([][]watcher, 2*nVars),
		occStart:     make([]int32, 2*nVars+1),
		inCard:       make([]bool, 2*nVars),
		vals:         make([]lbool, 2*nVars),
		vd:           make([]varData, nVars),
		trail:        make([]lit, 0, nVars),
		activity:     make([]float64, nVars),
		phase:        make([]bool, nVars),
		seen:         make([]bool, nVars),
		varInc:       1,
		claInc:       1,
		maxLearnts:   20000,
		varDecay:     0.95,
		restartScale: 100,
		chunkBits:    max(16, bits.Len(uint(nVars+1))),
	}
	for i := range s.vd {
		s.vd[i] = varData{cl: noClause, cd: -1}
	}
	s.heap.init(s)
	return s
}

func (s *solver) decisionLevel() int { return len(s.trailLim) }

func (s *solver) value(l lit) lbool { return s.vals[l] }

// assigned reports whether variable v has a value.
func (s *solver) assigned(v int) bool { return s.vals[mkLit(v, false)] != lUndef }

// enqueue assigns literal l true with the given reason. It must only be
// called when l is unassigned. Card counters are maintained here (and in
// cancelUntil) so that they stay balanced even for literals that are
// enqueued but never reached by the propagation head before a conflict.
func (s *solver) enqueue(l lit, rc int32, rd int32) {
	s.vals[l] = lTrue
	s.vals[l.neg()] = lFalse
	s.vd[l.vi()] = varData{level: int32(len(s.trailLim)), cl: rc, cd: rd}
	s.trail = append(s.trail, l)
	if s.inCard[l] {
		s.countCards(l, 1)
	}
}

// countCards adds d to the true-literal count of every card containing
// literal l.
func (s *solver) countCards(l lit, d int32) {
	for _, ci := range s.cardsOf(l) {
		s.cards[ci].count += d
	}
}

// addFact enqueues a top-level unit fact; returns false on conflict.
func (s *solver) addFact(l lit) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		s.ok = false
		return false
	}
	s.enqueue(l, noClause, -1)
	return true
}

// cardsOf lists the cards containing literal l.
func (s *solver) cardsOf(l lit) []int32 { return s.occ[s.occStart[l]:s.occStart[l+1]] }

// cardLitsOf lists card ci's literals.
func (s *solver) cardLitsOf(ci int32) []lit {
	c := &s.cards[ci]
	return s.cardLits[c.off : c.off+c.n]
}

// clauseAt returns the arena holding clause cr and the offset of its
// header there.
func (s *solver) clauseAt(cr int32) ([]lit, int32) {
	if cr < s.lbase {
		return s.ca, cr
	}
	cr -= s.lbase
	return s.lca[cr>>s.chunkBits], cr & (1<<s.chunkBits - 1)
}

// lits lists clause cr's literals.
func (s *solver) lits(cr int32) []lit {
	a, o := s.clauseAt(cr)
	return a[o+1 : o+1+int32(a[o])]
}

// newClause copies a clause of at least two literals to the end of the
// last learnt chunk, or of a fresh one when it does not fit, and returns
// its ref. The caller attaches it.
func (s *solver) newClause(lits []lit) int32 {
	size := 1 << s.chunkBits
	last := len(s.lca) - 1
	if last < 0 || len(s.lca[last])+1+len(lits) > size {
		s.lca = append(s.lca, make([]lit, 0, size))
		last++
	}
	c := s.lca[last]
	cr := s.lbase + int32(last<<s.chunkBits+len(c))
	c = append(c, lit(len(lits)))
	s.lca[last] = append(c, lits...)
	return cr
}

// addLearnt stores, attaches and bumps a learnt clause of at least two
// literals and returns its ref. The first learnt clause sizes the list
// for maxLearnts entries, past which a restart halves it: grown by
// append, a list of that size leaves about four times its own bytes
// behind as garbage (appends past 256 entries grow it by a quarter).
func (s *solver) addLearnt(lits []lit) int32 {
	cr := s.newClause(lits)
	if s.learnts == nil {
		s.learnts = make([]learnt, 0, s.maxLearnts)
	}
	s.learnts = append(s.learnts, learnt{cr: cr})
	s.attach(cr)
	s.bumpLearnt()
	return cr
}

// addAtMost installs sum(lits) <= k at decision level 0, simplifying
// against the current top-level assignment, and attaches it at once.
// Returns false on a top-level conflict. Literals must be over distinct
// variables. Models are loaded by load instead; this is for constraints
// added after loading (objective bounds).
func (s *solver) addAtMost(in []lit, k int) bool {
	if !s.ok {
		return false
	}
	lits := make([]lit, 0, len(in))
	for _, l := range in {
		switch s.value(l) {
		case lTrue:
			k--
		case lFalse:
			// contributes 0, drop
		default:
			lits = append(lits, l)
		}
	}
	if k < 0 {
		s.ok = false
		return false
	}
	if len(lits) <= k {
		return true
	}
	if k == 0 {
		for _, l := range lits {
			s.enqueue(l.neg(), noClause, -1)
		}
		return true
	}
	if k == len(lits)-1 {
		// "not all true": a plain clause of negations (at least two,
		// distinct and unassigned).
		for i, l := range lits {
			lits[i] = l.neg()
		}
		s.attach(s.newClause(lits))
		s.nClauses++
		return true
	}
	s.cards = append(s.cards, card{off: int32(len(s.cardLits)), n: int32(len(lits)), k: int32(k)})
	s.cardLits = append(s.cardLits, lits...)
	s.indexCards(len(s.cards) - 1)
	return true
}

// indexCards rebuilds the card occurrence lists and inCard with
// cards[from:] appended, in order, to the lists of their literals. The
// rebuilt lists get fresh arrays, so lists shared with other solvers are
// never written.
func (s *solver) indexCards(from int) {
	next := make([]int32, len(s.occStart)) // per literal: cards to add, then the next free slot
	total := len(s.occ)
	for ci := from; ci < len(s.cards); ci++ {
		lits := s.cardLitsOf(int32(ci))
		for _, l := range lits {
			next[l]++
		}
		total += len(lits)
	}
	occ := make([]int32, total)
	start := make([]int32, len(s.occStart))
	inCard := make([]bool, len(s.inCard))
	off := int32(0)
	for l := range inCard {
		start[l] = off
		if old := s.cardsOf(lit(l)); len(old) > 0 {
			off += int32(copy(occ[off:], old))
		}
		next[l], off = off, off+next[l]
		inCard[l] = off > start[l]
	}
	start[len(start)-1] = off
	for ci := from; ci < len(s.cards); ci++ {
		for _, l := range s.cardLitsOf(int32(ci)) {
			occ[next[l]] = int32(ci)
			next[l]++
		}
	}
	s.occStart, s.occ, s.inCard = start, occ, inCard
}

// attach appends clause cr's two watchers to the watch lists of its
// first two literals.
func (s *solver) attach(cr int32) {
	lits := s.lits(cr)
	ref := cr
	if len(lits) == 2 {
		ref = ^cr
	}
	s.watch(lits[0], watcher{ref, lits[1]})
	s.watch(lits[1], watcher{ref, lits[0]})
}

// watch appends w to literal l's watch list.
func (s *solver) watch(l lit, w watcher) {
	ws := s.watches[l]
	if len(ws) == cap(ws) {
		ws = s.regrow(ws)
	}
	s.watches[l] = append(ws, w)
}

// regrow moves a full watch list to an array of the next power-of-two
// capacity, taken from the spares when one is there, and leaves the
// list's own array among the spares. Watchers move between lists all
// search long, so a list outgrows its array again and again; recycling
// the arrays keeps that churn from becoming garbage. An array of fewer
// than 4 watchers (only the load slab has them) is not kept: it is
// smaller than the slice header that would keep it.
func (s *solver) regrow(ws []watcher) []watcher {
	k := bits.Len(uint(max(cap(ws), 2))) // 1<<k > cap(ws), at least 4
	var grown []watcher
	if n := len(s.spare[k]); n > 0 {
		grown = s.spare[k][n-1][:len(ws)]
		s.spare[k] = s.spare[k][:n-1]
	} else {
		grown = make([]watcher, len(ws), 1<<k)
	}
	copy(grown, ws)
	if c := cap(ws); c >= 4 {
		j := bits.Len(uint(c)) - 1 // 1<<j <= cap(ws)
		s.spare[j] = append(s.spare[j], ws[:0])
	}
	return grown
}

// conflictRef identifies the constraint a conflict arose from: a clause
// or a card index. The zero-ish value noConflict means none — passing it
// by value keeps the propagation loop allocation-free.
type conflictRef struct {
	cl int32
	cd int32
}

var noConflict = conflictRef{cl: noClause, cd: -1}

// none reports the absence of a conflict.
func (c conflictRef) none() bool { return c.cl < 0 && c.cd < 0 }

// propagate performs unit propagation over clauses and counter
// propagation over cards; it returns the conflicting constraint or
// noConflict.
func (s *solver) propagate() conflictRef {
	vals := s.vals
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++

		// Clause propagation: literal ¬p just became false. Kept
		// watchers are compacted in place, in order.
		fl := p.neg()
		ws := s.watches[fl]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			bv := vals[w.blocker]
			if bv == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.c < 0 {
				// Binary clause: the blocker is its other literal.
				ws[j] = w
				j++
				if bv == lFalse {
					cr := ^w.c
					// Order the conflict clause as a long one is
					// ordered (the false watch second), which is the
					// order analyze bumps it in.
					if lits := s.lits(cr); lits[0] == fl {
						lits[0], lits[1] = lits[1], fl
					}
					return s.watchConflict(fl, ws, i, j, cr)
				}
				s.enqueue(w.blocker, ^w.c, -1)
				continue
			}
			cr := w.c
			lits := s.lits(cr)
			if lits[0] == fl {
				lits[0], lits[1] = lits[1], lits[0]
			}
			// Now lits[1] == fl (false).
			first := lits[0]
			if first != w.blocker && vals[first] == lTrue {
				ws[j] = watcher{cr, first}
				j++
				continue
			}
			found := false
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watch(lits[1], watcher{cr, first})
					found = true
					break
				}
			}
			if found {
				continue // watcher moved
			}
			// Unit or conflict.
			ws[j] = watcher{cr, first}
			j++
			if vals[first] == lFalse {
				return s.watchConflict(fl, ws, i, j, cr)
			}
			s.enqueue(first, cr, -1)
		}
		if j < len(ws) {
			s.watches[fl] = ws[:j]
		}

		// Cardinality checks: literal p just became true (its counts
		// were already bumped at enqueue time).
		if !s.inCard[p] {
			continue
		}
		for _, ci := range s.cardsOf(p) {
			c := &s.cards[ci]
			if c.count > c.k {
				s.qhead = len(s.trail)
				return conflictRef{cl: noClause, cd: ci}
			}
			if c.count == c.k {
				for _, l := range s.cardLitsOf(ci) {
					if vals[l] == lUndef {
						s.enqueue(l.neg(), noClause, ci)
					}
				}
			}
		}
	}
	return noConflict
}

// watchConflict ends propagation on a conflict in clause cr, found at
// watcher i of fl's list ws with j watchers kept: the watchers after it
// are kept too, in order.
func (s *solver) watchConflict(fl lit, ws []watcher, i, j int, cr int32) conflictRef {
	j += copy(ws[j:], ws[i+1:])
	s.watches[fl] = ws[:j]
	s.qhead = len(s.trail)
	return conflictRef{cl: cr, cd: -1}
}

// cancelUntil backtracks to the given decision level.
func (s *solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	end := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= end; i-- {
		p := s.trail[i]
		v := p.vi()
		// Trail literals are true by construction: the variable's value
		// is p's polarity. Undo their card counts (mirror of enqueue).
		s.phase[v] = !p.sign()
		if s.inCard[p] {
			s.countCards(p, -1)
		}
		s.vals[p] = lUndef
		s.vals[p.neg()] = lUndef
		s.vd[v].cl, s.vd[v].cd = noClause, -1
		s.heap.push(v)
	}
	s.trail = s.trail[:end]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// reasonLits materialises the implication clause of an assigned literal p
// (p is its first element) or, with p == litUndef, of a conflicting
// constraint.
func (s *solver) reasonLits(p lit, rc int32, rd int32, buf []lit) []lit {
	buf = buf[:0]
	if rc >= 0 {
		return append(buf, s.lits(rc)...)
	}
	if p != litUndef {
		buf = append(buf, p)
	}
	for _, l := range s.cardLitsOf(rd) {
		if s.vals[l] == lTrue {
			buf = append(buf, l.neg())
		}
	}
	return buf
}

// analyze derives a first-UIP learnt clause from a conflict and returns
// it with the backjump level. learnt[0] is the asserting literal. All
// the work, the returned clause included, happens in the solver's
// reusable scratch buffers: the clause is valid until the next conflict.
func (s *solver) analyze(confl conflictRef) (learnt []lit, btLevel int) {
	work := append(s.learntBuf[:0], litUndef)
	pathC := 0
	p := litUndef
	idx := len(s.trail) - 1
	reason := s.reasonLits(litUndef, confl.cl, confl.cd, s.reasonBuf)

	for {
		for _, q := range reason {
			if q == p {
				continue
			}
			v := q.vi()
			if s.seen[v] || s.vd[v].level == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.vd[v].level) >= s.decisionLevel() {
				pathC++
			} else {
				work = append(work, q)
			}
		}
		for !s.seen[s.trail[idx].vi()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.vi()] = false
		pathC--
		if pathC <= 0 {
			break
		}
		v := p.vi()
		reason = s.reasonLits(p, s.vd[v].cl, s.vd[v].cd, reason)
	}
	work[0] = p.neg()
	s.reasonBuf = reason

	// Local clause minimisation: a literal is redundant when every
	// antecedent of its implication is already in the clause (or fixed
	// at level 0). seen[] still marks exactly the learnt literals'
	// variables here, which is what the check needs.
	original := append(s.origBuf[:0], work[1:]...)
	s.origBuf = original
	kept := work[:1]
	buf := s.minBuf
	for _, q := range original {
		v := q.vi()
		rc, rd := s.vd[v].cl, s.vd[v].cd
		if rc < 0 && rd < 0 {
			kept = append(kept, q) // decision literal
			continue
		}
		redundant := true
		buf = s.reasonLits(q.neg(), rc, rd, buf)
		for _, r := range buf {
			if r == q.neg() {
				continue
			}
			if !s.seen[r.vi()] && s.vd[r.vi()].level != 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			kept = append(kept, q)
		}
	}
	s.minBuf = buf
	s.learntBuf = work

	// Backjump level: highest level among the other literals.
	btLevel = 0
	maxI := 1
	for i := 1; i < len(kept); i++ {
		if int(s.vd[kept[i].vi()].level) > btLevel {
			btLevel = int(s.vd[kept[i].vi()].level)
			maxI = i
		}
	}
	if len(kept) > 1 {
		kept[1], kept[maxI] = kept[maxI], kept[1]
	}
	for _, l := range original {
		s.seen[l.vi()] = false
	}
	return kept, btLevel
}

func (s *solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *solver) decayActivities() {
	s.varInc /= s.varDecay
	s.claInc /= 0.999
}

// bumpLearnt bumps the activity of the newest learnt clause.
func (s *solver) bumpLearnt() {
	c := &s.learnts[len(s.learnts)-1]
	c.act += s.claInc
	if c.act > 1e20 {
		for i := range s.learnts {
			s.learnts[i].act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// locked reports whether clause cr is the reason of a current
// assignment. An implied long clause holds that literal first; a binary
// one is implied from its watcher without reordering, so both of its
// literals are checked.
func (s *solver) locked(cr int32) bool {
	for _, l := range s.lits(cr)[:2] {
		if v := l.vi(); s.vd[v].cl == cr && s.assigned(v) {
			return true
		}
	}
	return false
}

// reduceDB removes roughly half of the least active learnt clauses and
// compacts the learnt chunks.
func (s *solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool { return s.learnts[i].act > s.learnts[j].act })
	kept := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if i < limit || len(s.lits(c.cr)) == 2 || s.locked(c.cr) {
			kept = append(kept, c)
			continue
		}
		s.detach(c.cr)
		a, o := s.clauseAt(c.cr)
		a[o] = -a[o]
	}
	s.learnts = kept
	s.compact()
}

// detach removes clause cr's two watchers.
func (s *solver) detach(cr int32) {
	lits := s.lits(cr)
	ref := cr
	if len(lits) == 2 {
		ref = ^cr
	}
	for _, l := range lits[:2] {
		ws := s.watches[l]
		for i, w := range ws {
			if w.c == ref {
				ws[i] = ws[len(ws)-1]
				s.watches[l] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// compact slides the live clauses of the learnt chunks down over the
// deleted ones, in place and in chunk order, releases the chunks left
// empty, and rewrites every ref that moved (watchers, learnt list,
// reasons). The order of every list and of each clause's literals stays
// as it was.
func (s *solver) compact() {
	type move struct{ from, to int32 }
	var moves []move // in increasing from order
	size := 1 << s.chunkBits
	w, wlen := 0, 0 // write chunk and its length so far
	for r, c := range s.lca {
		for o := 0; o < len(c); {
			n := int(c[o])
			if n < 0 {
				o += 1 - n
				continue
			}
			if wlen+1+n > size {
				s.lca[w] = s.lca[w][:wlen]
				w, wlen = w+1, 0
			}
			from := s.lbase + int32(r<<s.chunkBits+o)
			to := s.lbase + int32(w<<s.chunkBits+wlen)
			// The write position never passes the read position, so
			// nothing is overwritten before it is read.
			copy(s.lca[w][wlen:size], c[o:o+1+n])
			if from != to {
				moves = append(moves, move{from, to})
			}
			wlen += 1 + n
			o += 1 + n
		}
	}
	if len(s.lca) > 0 {
		s.lca[w] = s.lca[w][:wlen]
		clear(s.lca[w+1:])
		s.lca = s.lca[:w+1]
	}
	if len(moves) == 0 {
		return
	}
	moved := func(cr int32) int32 {
		if cr < moves[0].from {
			return cr
		}
		if i, ok := slices.BinarySearchFunc(moves, cr, func(m move, cr int32) int { return cmp.Compare(m.from, cr) }); ok {
			return moves[i].to
		}
		return cr
	}
	for _, ws := range s.watches {
		for i, w := range ws {
			if w.c < 0 {
				ws[i].c = ^moved(^w.c)
			} else {
				ws[i].c = moved(w.c)
			}
		}
	}
	for i := range s.learnts {
		s.learnts[i].cr = moved(s.learnts[i].cr)
	}
	for v := range s.vd {
		if cr := s.vd[v].cl; cr >= 0 {
			s.vd[v].cl = moved(cr)
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// learnConflict analyzes a conflict above level 0, backjumps, installs
// the learnt clause (as a fact when unit) and decays activities. Returns
// false on a root refutation (ok cleared).
func (s *solver) learnConflict(confl conflictRef) bool {
	s.conflicts++
	learnt, bt := s.analyze(confl)
	if s.onLearn != nil {
		s.onLearn(learnt)
	}
	s.cancelUntil(bt)
	if len(learnt) == 1 {
		if !s.addFact(learnt[0]) {
			return false
		}
	} else {
		s.enqueue(learnt[0], s.addLearnt(learnt), -1)
	}
	s.decayActivities()
	return true
}

// propCheckInterval bounds how many unit propagations may pass between
// context checks. Conflict-driven checks alone (every 1024 conflicts) can
// ignore a deadline for a long time on propagation-heavy instances where
// conflicts are rare; see TestCancellationLatency. At ~14M propagations
// per second on a mapping model (Table 2 cells, 2-CPU machine) this is
// under a millisecond.
const propCheckInterval = 10_000

// search runs the CDCL loop until SAT (lTrue), UNSAT (lFalse) or context
// cancellation (lUndef). Cancellation is observed on three clocks:
// every 1024 conflicts, every 10k propagations, and at every restart.
func (s *solver) search(ctx context.Context) lbool {
	if !s.ok {
		return lFalse
	}
	if ctx.Err() != nil {
		return lUndef
	}
	restartIdx := int64(0)
	conflictsSinceRestart := int64(0)
	restartBudget := luby(1) * s.restartScale
	nextPropCheck := s.propagations + propCheckInterval
	// A search start is a restart boundary too: pick up clauses shared
	// by workers that got ahead before this one finished compiling.
	if s.onRestart != nil && !s.onRestart() {
		s.ok = false
		return lFalse
	}

	for {
		confl := s.propagate()
		if s.propagations >= nextPropCheck {
			nextPropCheck = s.propagations + propCheckInterval
			if ctx.Err() != nil {
				return lUndef
			}
		}
		if !confl.none() {
			conflictsSinceRestart++
			if s.decisionLevel() == 0 {
				s.conflicts++
				s.ok = false
				return lFalse
			}
			if !s.learnConflict(confl) {
				return lFalse
			}
			if s.conflicts%1024 == 0 && ctx.Err() != nil || s.conflictCap > 0 && s.conflicts >= s.conflictCap {
				return lUndef
			}
			continue
		}

		if conflictsSinceRestart >= restartBudget {
			restartIdx++
			conflictsSinceRestart = 0
			restartBudget = luby(restartIdx+1) * s.restartScale
			s.restarts++
			s.cancelUntil(0)
			if len(s.learnts) > s.maxLearnts {
				s.reduceDB()
			}
			if s.onRestart != nil && !s.onRestart() {
				s.ok = false
				return lFalse
			}
			if ctx.Err() != nil {
				return lUndef
			}
			continue
		}

		v := s.pickBranchVar()
		if v < 0 {
			return lTrue // all variables assigned, no conflict
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(mkLit(v, !s.phase[v]), noClause, -1)
	}
}

func (s *solver) pickBranchVar() int {
	for {
		v := s.heap.popMax()
		if v < 0 {
			return -1
		}
		if !s.assigned(v) {
			return v
		}
	}
}

// varHeap is a max-heap over variable activities with lazy re-insertion.
type varHeap struct {
	s    *solver
	heap []int32
	pos  []int32
}

func (h *varHeap) init(s *solver) {
	h.s = s
	h.pos = make([]int32, s.nVars)
	h.heap = make([]int32, 0, s.nVars)
	h.fill()
}

// fill puts every variable back in index order.
func (h *varHeap) fill() {
	h.heap = h.heap[:0]
	for v := 0; v < h.s.nVars; v++ {
		h.pos[v] = int32(v)
		h.heap = append(h.heap, int32(v))
	}
}

// rebuild refills the heap and restores heap order after activities
// changed wholesale.
func (h *varHeap) rebuild() {
	h.fill()
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *varHeap) less(i, j int) bool {
	return h.s.activity[h.heap[i]] > h.s.activity[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.heap) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.heap) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// push re-inserts a variable (no-op if present).
func (h *varHeap) push(v int) {
	if h.pos[v] >= 0 {
		return
	}
	h.pos[v] = int32(len(h.heap))
	h.heap = append(h.heap, int32(v))
	h.up(len(h.heap) - 1)
}

// popMax removes and returns the most active variable, or -1.
func (h *varHeap) popMax() int {
	if len(h.heap) == 0 {
		return -1
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return int(v)
}

// update restores heap order after an activity bump of v.
func (h *varHeap) update(v int) {
	if h.pos[v] >= 0 {
		h.up(int(h.pos[v]))
	}
}
