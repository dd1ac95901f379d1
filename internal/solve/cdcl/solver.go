package cdcl

import (
	"context"
	"sort"
)

// clause is a disjunction of literals. Watched literals are lits[0] and
// lits[1].
type clause struct {
	lits []lit
	act  float64
}

// card is an at-most-k constraint over literals: sum(lits true) <= k.
// count tracks how many literals are currently true.
type card struct {
	lits  []lit
	k     int32
	count int32
}

// watcher is one entry of a watch list: the index of a clause in the
// solver's clause slab and a blocker literal whose truth satisfies it.
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

// noClause is the clause index of "no clause" (a decision, a fact, or a
// card reason).
const noClause int32 = -1

// solver is the CDCL core. It is not safe for concurrent use.
//
// Memory layout: every constraint lives in a slab (ca for clauses, cards
// for cards) and is referred to by its index, so what the propagation
// loop touches per literal and per variable — watch entries, card
// occurrence lists, values, reasons — holds no pointers: the collector
// neither scans it nor puts write barriers on it. A loaded model's
// clause and card literals are carved from one arena sized from the
// model (see load).
type solver struct {
	nVars int
	ok    bool // false once a top-level conflict is derived

	ca       []clause // clause slab: problem clauses and learnts
	free     []int32  // slab slots released by reduceDB, reused first
	nClauses int      // problem (non-learnt) clauses in ca
	learnts  []int32
	cards    []card

	// watches[l] lists clauses watching literal l, inspected when l
	// becomes false.
	watches [][]watcher
	// occ[occStart[l]:occStart[l+1]] lists the cards containing literal
	// l, in installation order (see cardsOf).
	occStart []int32
	occ      []int32

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

	// Clause-sharing hooks (nil in a one-lane gang). onLearn is
	// invoked with every learnt clause, immediately after conflict
	// analysis; the callee must copy the slice if it retains it (the
	// solver reorders a clause's literals as watches move). onRestart is
	// invoked at every restart boundary with the trail at level 0; it
	// returns false when an imported clause produced a top-level
	// conflict, proving the formula unsatisfiable.
	onLearn   func(lits []lit)
	onRestart func() bool

	// Conflict-analysis scratch, reused across conflicts and restarts
	// (the learnt clause itself is copied out exactly sized, so these
	// grow to the working-set high-water mark once and then allocate
	// nothing per conflict).
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
	v := l.vi()
	s.vals[l] = lTrue
	s.vals[l.neg()] = lFalse
	s.vd[v] = varData{level: int32(s.decisionLevel()), cl: rc, cd: rd}
	s.trail = append(s.trail, l)
	for _, ci := range s.cardsOf(l) {
		s.cards[ci].count++
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

// newClause stores a clause in the slab, reusing a released slot first,
// and returns its index. The caller attaches it.
func (s *solver) newClause(lits []lit) int32 {
	c := clause{lits: lits}
	if n := len(s.free); n > 0 {
		cr := s.free[n-1]
		s.free = s.free[:n-1]
		s.ca[cr] = c
		return cr
	}
	s.ca = append(s.ca, c)
	return int32(len(s.ca) - 1)
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
	s.cards = append(s.cards, card{lits: lits, k: int32(k)})
	s.indexCards(len(s.cards) - 1)
	return true
}

// indexCards rebuilds the card occurrence lists with cards[from:]
// appended, in order, to the lists of their literals. The rebuilt lists
// get fresh arrays, so lists shared with other solvers are never written.
func (s *solver) indexCards(from int) {
	next := make([]int32, len(s.occStart)) // per literal: cards to add, then the next free slot
	total := len(s.occ)
	for _, c := range s.cards[from:] {
		for _, l := range c.lits {
			next[l]++
		}
		total += len(c.lits)
	}
	occ := make([]int32, total)
	start := make([]int32, len(s.occStart))
	off := int32(0)
	for l := range len(start) - 1 {
		start[l] = off
		off += int32(copy(occ[off:], s.cardsOf(lit(l))))
		next[l], off = off, off+next[l]
	}
	start[len(start)-1] = off
	for ci := from; ci < len(s.cards); ci++ {
		for _, l := range s.cards[ci].lits {
			occ[next[l]] = int32(ci)
			next[l]++
		}
	}
	s.occStart, s.occ = start, occ
}

func (s *solver) attach(cr int32) {
	lits := s.ca[cr].lits
	s.watches[lits[0]] = append(s.watches[lits[0]], watcher{cr, lits[1]})
	s.watches[lits[1]] = append(s.watches[lits[1]], watcher{cr, lits[0]})
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
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++

		// Clause propagation: literal ¬p just became false.
		fl := p.neg()
		ws := s.watches[fl]
		out := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if s.vals[w.blocker] == lTrue {
				out = append(out, w)
				continue
			}
			lits := s.ca[w.c].lits
			if lits[0] == fl {
				lits[0], lits[1] = lits[1], lits[0]
			}
			// Now lits[1] == fl (false).
			first := lits[0]
			if first != w.blocker && s.vals[first] == lTrue {
				out = append(out, watcher{w.c, first})
				continue
			}
			found := false
			for i := 2; i < len(lits); i++ {
				if s.vals[lits[i]] != lFalse {
					lits[1], lits[i] = lits[i], lits[1]
					s.watches[lits[1]] = append(s.watches[lits[1]], watcher{w.c, first})
					found = true
					break
				}
			}
			if found {
				continue // watcher moved
			}
			// Unit or conflict.
			out = append(out, watcher{w.c, first})
			if s.vals[first] == lFalse {
				// Conflict: keep remaining watchers, restore list.
				out = append(out, ws[wi+1:]...)
				s.watches[fl] = out
				s.qhead = len(s.trail)
				return conflictRef{cl: w.c, cd: -1}
			}
			s.enqueue(first, w.c, -1)
		}
		s.watches[fl] = out

		// Cardinality checks: literal p just became true (its counts
		// were already bumped at enqueue time).
		for _, ci := range s.cardsOf(p) {
			c := &s.cards[ci]
			if c.count > c.k {
				s.qhead = len(s.trail)
				return conflictRef{cl: noClause, cd: ci}
			}
			if c.count == c.k {
				for _, l := range c.lits {
					if s.vals[l] == lUndef {
						s.enqueue(l.neg(), noClause, ci)
					}
				}
			}
		}
	}
	return noConflict
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
		for _, ci := range s.cardsOf(p) {
			s.cards[ci].count--
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
		return append(buf, s.ca[rc].lits...)
	}
	if p != litUndef {
		buf = append(buf, p)
	}
	for _, l := range s.cards[rd].lits {
		if s.vals[l] == lTrue {
			buf = append(buf, l.neg())
		}
	}
	return buf
}

// analyze derives a first-UIP learnt clause from a conflict and returns
// it with the backjump level. learnt[0] is the asserting literal. The
// returned slice is freshly allocated at its exact final size (the
// caller stores it in a clause); all intermediate work happens in the
// solver's reusable scratch buffers.
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
	learnt = make([]lit, len(kept))
	copy(learnt, kept)
	return learnt, btLevel
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

func (s *solver) bumpClause(cr int32) {
	c := &s.ca[cr]
	c.act += s.claInc
	if c.act > 1e20 {
		for _, lc := range s.learnts {
			s.ca[lc].act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// locked reports whether clause cr is the reason of a current
// assignment.
func (s *solver) locked(cr int32) bool {
	v := s.ca[cr].lits[0].vi()
	return s.vd[v].cl == cr && s.assigned(v)
}

// reduceDB removes roughly half of the least active learnt clauses and
// releases their slab slots.
func (s *solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool { return s.ca[s.learnts[i]].act > s.ca[s.learnts[j]].act })
	kept := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, cr := range s.learnts {
		if i < limit || s.locked(cr) || len(s.ca[cr].lits) == 2 {
			kept = append(kept, cr)
			continue
		}
		s.detach(cr)
		s.ca[cr] = clause{}
		s.free = append(s.free, cr)
	}
	s.learnts = kept
}

func (s *solver) detach(cr int32) {
	for _, l := range s.ca[cr].lits[:2] {
		ws := s.watches[l]
		for i, w := range ws {
			if w.c == cr {
				ws[i] = ws[len(ws)-1]
				s.watches[l] = ws[:len(ws)-1]
				break
			}
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
		cr := s.newClause(learnt)
		s.learnts = append(s.learnts, cr)
		s.attach(cr)
		s.bumpClause(cr)
		s.enqueue(learnt[0], cr, -1)
	}
	s.decayActivities()
	return true
}

// propCheckInterval bounds how many unit propagations may pass between
// context checks. Conflict-driven checks alone (every 1024 conflicts) can
// ignore a deadline for a long time on propagation-heavy instances where
// conflicts are rare; see TestCancellationLatency. At ~10M propagations
// per second on a mapping model this is about a millisecond.
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
			if s.conflicts%1024 == 0 && ctx.Err() != nil {
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
