package smt

// CDCL SAT solver with two-watched-literal propagation, VSIDS-style
// activity-based decision heuristics, first-UIP clause learning, phase
// saving and geometric restarts. Learnt clauses are kept for the
// solver's lifetime: none is ever deleted. This is the engine underneath
// the bit-blaster; it plays the role of MiniSat inside STP.
//
// The core holds no pointers on its hot path (DESIGN.md "SAT core").
// Every clause lives in one flat arena of literals behind a length
// word and is named by a cref; watchers and reasons are crefs; values
// are indexed by literal. A binary clause is propagated from its
// watcher alone: the watcher's blocker is always the clause's other
// literal.

// Lit is a literal: variable v is encoded as 2v (positive) / 2v+1
// (negative). Variables are numbered from 0.
type Lit int32

// MkLit builds a literal for variable v with the given sign (neg == true
// means the negated literal).
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the variable of l.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether l is a negated literal.
func (l Lit) Neg() bool { return l&1 == 1 }

// Flip returns the complement literal.
func (l Lit) Flip() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

// cref names a clause in the arena: the offset of its first literal
// shifted left by one, with the low bit set for a binary clause. The
// literal before that offset holds the clause length. Offset 0 is the
// first clause's length word, so the zero cref names no clause.
type cref int32

const (
	crefNone cref = 0
	// maxArena bounds the arena so every offset fits a cref.
	maxArena = 1<<30 - 1
)

func (c cref) binary() bool { return c&1 != 0 }

type watcher struct {
	c       cref
	blocker Lit // a literal of c; if true, the clause is satisfied
}

// Sat is the CDCL solver instance. The zero value is not usable; create
// with NewSat.
type Sat struct {
	arena    []Lit       // every clause: its length, then its literals
	watches  [][]watcher // indexed by literal
	clauses  int         // problem clauses of two or more literals
	learnts  int         // learnt clauses of two or more literals
	vals     []lbool     // indexed by literal
	phase    []bool      // saved phases
	level    []int32     // decision level per variable
	reason   []cref      // implying clause per variable
	trail    []Lit
	trailLim []int // decision-level boundaries in trail
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap

	seen     []bool // scratch for conflict analysis
	learnt   []Lit  // scratch: the clause analyze derives
	toClear  []Lit  // scratch: variables analyze marked seen
	ok       bool   // false once UNSAT at level 0
	Conflict int    // number of conflicts (statistics)
	Props    int64

	// Budget limits an individual Solve call; <= 0 means unlimited.
	// When exceeded, Solve returns Unknown.
	Budget int
}

// SolveResult is the outcome of a Solve call.
type SolveResult int8

const (
	Unsat SolveResult = iota
	SatResult
	Unknown
)

// NewSat creates an empty solver.
func NewSat() *Sat {
	s := &Sat{varInc: 1, ok: true}
	s.order = &varHeap{act: &s.activity}
	return s
}

// NewVar adds a fresh variable and returns its index.
func (s *Sat) NewVar() int {
	v := len(s.level)
	s.vals = append(s.vals, lUndef, lUndef)
	s.phase = append(s.phase, false)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefNone)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// NumVars returns the number of variables.
func (s *Sat) NumVars() int { return len(s.level) }

func (s *Sat) value(l Lit) lbool { return s.vals[l] }

// lits returns the literals of clause c, aliasing the arena.
func (s *Sat) lits(c cref) []Lit {
	off := int(c >> 1)
	end := off + int(s.arena[off-1])
	return s.arena[off:end:end]
}

// AddClause adds a clause; returns false if the formula became trivially
// UNSAT. Must be called at decision level 0.
func (s *Sat) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	// Simplify: remove duplicates and false literals, detect tautology.
	out := lits[:0:len(lits)]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return true // already satisfied forever (level 0)
		case lUndef:
			dup := false
			for _, o := range out {
				if o == l {
					dup = true
					break
				}
				if o == l.Flip() {
					return true // tautology
				}
			}
			if !dup {
				out = append(out, l)
			}
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], crefNone) {
			s.ok = false
			return false
		}
		if s.propagate() != crefNone {
			s.ok = false
			return false
		}
		return true
	}
	s.newClause(out)
	s.clauses++
	return true
}

// newClause copies lits (two or more) into the arena and watches its
// first two literals.
func (s *Sat) newClause(lits []Lit) cref {
	off := len(s.arena) + 1
	if off+len(lits) > maxArena {
		panic("smt: SAT clause arena exceeds 2^30 literals")
	}
	s.arena = append(s.arena, Lit(len(lits)))
	s.arena = append(s.arena, lits...)
	c := cref(off << 1)
	if len(lits) == 2 {
		c |= 1
	}
	s.watches[lits[0].Flip()] = append(s.watches[lits[0].Flip()], watcher{c, lits[1]})
	s.watches[lits[1].Flip()] = append(s.watches[lits[1].Flip()], watcher{c, lits[0]})
	return c
}

func (s *Sat) enqueue(l Lit, from cref) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.assign(l, from)
	return true
}

// assign makes the unassigned literal l true, implied by from.
func (s *Sat) assign(l Lit, from cref) {
	s.vals[l] = lTrue
	s.vals[l^1] = lFalse
	v := l.Var()
	s.phase[v] = !l.Neg()
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Sat) decisionLevel() int { return len(s.trailLim) }

// propagate runs unit propagation to a fixpoint and returns the
// conflicting clause, or crefNone.
func (s *Sat) propagate() cref {
	vals := s.vals
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Props++
		falseLit := p.Flip()
		ws := s.watches[p]
		j := 0
	nextWatch:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			bv := vals[w.blocker]
			if bv == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.c.binary() {
				// The blocker is the other literal: unit or conflict
				// without reading the clause.
				ws[j] = w
				j++
				if bv == lUndef {
					s.assign(w.blocker, w.c)
					continue
				}
				// analyze reads a conflict clause in order; store the
				// order the general loop below would have left.
				cl := s.lits(w.c)
				cl[0], cl[1] = w.blocker, falseLit
				return s.conflict(p, ws, i, j, w.c)
			}
			c := s.lits(w.c)
			// Ensure the false literal (p.Flip()) is c[1].
			if c[0] == falseLit {
				c[0], c[1] = c[1], c[0]
			}
			first := c[0]
			if first != w.blocker && vals[first] == lTrue {
				ws[j] = watcher{w.c, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(c); k++ {
				if vals[c[k]] != lFalse {
					c[1], c[k] = c[k], c[1]
					s.watches[c[1].Flip()] = append(s.watches[c[1].Flip()], watcher{w.c, first})
					continue nextWatch
				}
			}
			// Unit or conflicting.
			ws[j] = watcher{w.c, first}
			j++
			if vals[first] == lFalse {
				return s.conflict(p, ws, i, j, w.c)
			}
			s.assign(first, w.c)
		}
		s.watches[p] = ws[:j]
	}
	return crefNone
}

// conflict ends propagate on conflicting clause c found at watcher i of
// ws, p's watch list, whose first j entries are kept: it keeps the
// unvisited watchers and returns c.
func (s *Sat) conflict(p Lit, ws []watcher, i, j int, c cref) cref {
	j += copy(ws[j:], ws[i+1:])
	s.watches[p] = ws[:j]
	s.qhead = len(s.trail)
	return c
}

// analyze derives the first-UIP learnt clause of conflict confl and the
// level to backjump to. The returned slice is scratch, valid until the
// next call.
func (s *Sat) analyze(confl cref) (learnt []Lit, backLevel int) {
	pathC := 0
	var p Lit = -1
	learnt = append(s.learnt[:0], 0) // placeholder for the asserting literal
	idx := len(s.trail) - 1

	for {
		for _, q := range s.lits(confl) {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find next literal to expand.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		confl = s.reason[v]
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Flip()
	s.toClear = append(s.toClear[:0], learnt...)

	// Minimize: drop literals implied by the rest (cheap local check).
	out := learnt[:1]
	for _, q := range learnt[1:] {
		r := s.reason[q.Var()]
		if r == crefNone {
			out = append(out, q)
			continue
		}
		redundant := true
		for _, l := range s.lits(r) {
			if l == q.Flip() {
				continue
			}
			if !s.seen[l.Var()] && s.level[l.Var()] > 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			out = append(out, q)
		}
	}
	// Keep seen consistent: clear flags for every var touched, including
	// literals dropped by minimization.
	for _, q := range s.toClear {
		s.seen[q.Var()] = false
	}
	s.learnt = learnt
	learnt = out

	// Compute backtrack level: max level among learnt[1:].
	backLevel = 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		backLevel = int(s.level[learnt[1].Var()])
	}
	return learnt, backLevel
}

func (s *Sat) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Sat) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		l := s.trail[i]
		s.vals[l] = lUndef
		s.vals[l^1] = lUndef
		v := l.Var()
		s.reason[v] = crefNone
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Sat) pickBranchVar() int {
	for {
		v := s.order.pop()
		if v < 0 {
			return -1
		}
		if s.vals[MkLit(v, false)] == lUndef {
			return v
		}
	}
}

// Solve determines satisfiability under the given assumptions. On
// SatResult, ModelValue reports the assignment. The solver remains usable
// afterwards (assumptions are retracted).
func (s *Sat) Solve(assumptions ...Lit) SolveResult {
	res := s.solveKeep(assumptions...)
	if res != SatResult {
		s.cancelUntil(0)
	}
	return res
}

// solveKeep is Solve without the final backtrack on success, so the caller
// can read the full model (including assumption-level assignments) before
// calling cancelUntil(0) itself.
func (s *Sat) solveKeep(assumptions ...Lit) SolveResult {
	if !s.ok {
		return Unsat
	}
	s.cancelUntil(0) // discard any model left by a previous solveKeep

	maxConflicts := 256
	conflicts := 0
	budget := s.Budget
	// s.Conflict accumulates across queries; the budget bounds only this
	// query, so compare against the delta from here, not the total.
	baseConflicts := s.Conflict

	for {
		// (Re-)establish assumptions after any restart.
		for s.decisionLevel() < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.assign(p, crefNone)
			if s.propagate() != crefNone {
				// A conflict while placing assumptions means the
				// assumption set is inconsistent with the formula.
				return Unsat
			}
		}

		confl := s.propagate()
		if confl != crefNone {
			conflicts++
			s.Conflict++
			if budget > 0 && s.Conflict-baseConflicts > budget {
				return Unknown
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			if s.decisionLevel() <= len(assumptions) {
				return Unsat
			}
			learnt, backLevel := s.analyze(confl)
			if backLevel < len(assumptions) {
				backLevel = len(assumptions)
			}
			s.cancelUntil(backLevel)
			if len(learnt) == 1 {
				s.cancelUntil(0)
				if !s.enqueue(learnt[0], crefNone) {
					s.ok = false
					return Unsat
				}
				// Restart loop re-establishes assumptions.
				continue
			}
			c := s.newClause(learnt)
			s.learnts++
			s.enqueue(learnt[0], c)
			s.varInc *= 1.0 / 0.95
			continue
		}

		if conflicts >= maxConflicts {
			// Restart.
			conflicts = 0
			maxConflicts = maxConflicts * 3 / 2
			s.cancelUntil(len(assumptions))
			continue
		}

		v := s.pickBranchVar()
		if v < 0 {
			return SatResult
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.assign(MkLit(v, !s.phase[v]), crefNone)
	}
}

// ModelValue returns the value of variable v in the last satisfying
// assignment. Unassigned variables report false.
func (s *Sat) ModelValue(v int) bool { return s.vals[MkLit(v, false)] == lTrue }

// varHeap is a max-heap on variable activity with lazy deletion.
type varHeap struct {
	act   *[]float64
	heap  []int
	index []int // var -> position in heap, -1 if absent
}

func (h *varHeap) less(i, j int) bool { return (*h.act)[h.heap[i]] > (*h.act)[h.heap[j]] }

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.index[h.heap[i]] = i
	h.index[h.heap[j]] = j
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
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

func (h *varHeap) push(v int) {
	for len(h.index) <= v {
		h.index = append(h.index, -1)
	}
	if h.index[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.index[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v int) { h.push(v) }

func (h *varHeap) pop() int {
	if len(h.heap) == 0 {
		return -1
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.index[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if v < len(h.index) && h.index[v] >= 0 {
		h.up(h.index[v])
	}
}
