// Package qcache is the SMT query-cache subsystem sitting between the
// concolic exploration engine (internal/cte) and the solver
// (internal/smt). Concolic exploration re-issues highly overlapping
// queries — a long shared path-condition prefix plus one flipped branch —
// and the cache turns most of them into dictionary lookups and cheap
// model evaluations, in the spirit of KLEE's counterexample cache:
//
//   - Canonical keys. A constraint set is keyed by the sorted,
//     deduplicated structural hashes of its conditions (key.go). Hashing
//     is memoized per interned DAG node, in a slice indexed by the
//     node's dense id (smt.Expr.ID), so a query costs O(roots) after the
//     first visit. Variables hash by name, making keys stable across
//     processes (persist.go).
//   - Model reuse. Cached sat models (and, during slicing, the incumbent
//     input) are *tried* against a new set by evaluation before any SAT
//     call. A cached superset model automatically satisfies a subset
//     query, so superset subsumption falls out of the candidate index +
//     evaluation check; no cached model is ever returned unvalidated.
//   - Validation cost. ValidateModel evaluates the whole set under one
//     sub-expression memo (an smt.Evaluator), so a shared path-condition
//     prefix is walked once per validated model rather than once per
//     condition. The memo is id-indexed, pooled and reset in O(1) by an
//     epoch bump, so a warmed exact hit allocates nothing per condition.
//     An entry keeps its model by variable id, so a hit does not look
//     up variable names; a loaded entry resolves its names once.
//   - Unsat subsumption. Any superset of a known-unsat set is unsat.
//     Unsat entries are indexed under their minimum element hash (which a
//     superset necessarily contains), so the subset scan is a bounded
//     per-element probe, each candidate tested by one merge of two
//     sorted element lists, not a cache-wide sweep.
//   - Independence slicing. On a miss the set is partitioned into
//     variable-connectivity groups (slice.go); only the group containing
//     the flipped branch goes to the SAT solver, the untouched prefix
//     groups are re-satisfied by the incumbent input, and the per-group
//     models merge soundly because groups are variable-disjoint.
//
// One Cache may be shared by every worker of a parallel exploration:
// one mutex guards the node memo, the entry index and the insertion log
// (model validation, DAG walks and solver calls run outside it),
// counters are registry handles, and entries are immutable after
// insertion.
package qcache

import (
	"sync"
	"sync/atomic"
	"time"

	"rvcte/internal/obs"
	"rvcte/internal/smt"
)

const (
	maxElemList = 32 // cap per-element index lists (exact map is unbounded)
	// largeSetThreshold classifies a constraint set as "large" for the
	// qcache.large_sets counter — beyond it, canonicalization and the
	// candidate Eval scans dominate resolve latency, not the SAT solve.
	largeSetThreshold = 256
)

// Options tunes a cache. It has no fields left; New keeps the
// parameter for its existing callers.
type Options struct{}

// maxCandidates bounds how many cached models are tried (via
// ValidateModel) per lookup before falling back to the solver.
const maxCandidates = 8

// Stats is a snapshot of the cache counters. Hits+EvalHits+SubsumeHits
// is the number of Check calls answered without any SAT query;
// SolverCalls is the number that reached the SAT solver, of which
// SliceSolves solved only the flipped-branch group. Every count but
// Loaded and Entries runs from the cache's last SetObs; those two are
// the cache's totals.
type Stats struct {
	Queries     int64 `json:"queries"`      // non-trivial Check calls
	Hits        int64 `json:"hits"`         // exact-key hits
	EvalHits    int64 `json:"eval_hits"`    // answered by re-evaluating a cached model
	SubsumeHits int64 `json:"subsume_hits"` // unsat by subset subsumption
	SolverCalls int64 `json:"solver_calls"` // fell through to the SAT solver
	SliceSolves int64 `json:"slice_solves"` // ... of which solved only the sliced group
	Unknowns    int64 `json:"unknowns"`     // solver budget exhaustion passed through (uncached)
	Stores      int64 `json:"stores"`       // entries inserted by lookups
	Loaded      int64 `json:"loaded"`       // entries loaded from disk
	Entries     int64 `json:"entries"`      // current entry count
}

type entry struct {
	key   uint64
	elems []uint64 // sorted, deduplicated element hashes
	sat   bool
	seq   int // dense insertion index (candidate dedup)

	// A sat entry's model, projected onto the variables of its
	// conditions, is kept by variable id (byID) and by variable name
	// (byName, the persistable form). An entry solved in this process
	// starts with byID and gets byName on its first export; an entry
	// loaded from a file or a peer starts with byName and gets byID once
	// every name resolves against the builder. Both stay nil for unsat.
	byID   atomic.Pointer[idModel]
	byName atomic.Pointer[map[string]uint64]
}

// idModel is a cached model keyed by builder variable id: vals[i] is the
// value of variable ids[i]. The ids are int32 to keep the many models of
// a long campaign small.
type idModel struct {
	ids  []int32
	vals []uint64
}

// Cache is a concurrency-safe SMT query cache bound to one Builder.
type Cache struct {
	b *smt.Builder

	// OnAnswer, when set before first use, observes every non-trivial
	// Check answer: the canonicalized conditions, the verdict, the model
	// (nil unless sat) and whether the full-set cache lookup answered
	// (sliced and solved queries report false). It is invoked
	// synchronously from Check on the calling goroutine — the audit hook
	// the correctness property tests hang off.
	OnAnswer func(conds []*smt.Expr, sat bool, model smt.Assignment, fromCache bool)

	// mu guards nodes, exact, satByElem, unsatByMin and log. It is held
	// for memo and map work only, never across a DAG walk, a model
	// validation or a solve.
	mu    sync.Mutex
	nodes []nodeMemo // per-node hash and variable memo, by smt.Expr.ID
	exact map[uint64]*entry
	// satByElem indexes sat entries under each of their element hashes
	// (bounded lists — the reuse heuristic); unsatByMin indexes unsat
	// entries under their minimum element hash (exact subset detection:
	// a superset necessarily contains the minimum).
	satByElem  map[uint64][]*entry
	unsatByMin map[uint64][]*entry
	// log holds every inserted entry in insertion order, so entry.seq is
	// its index; ExportSince ships a suffix of it.
	log    []*entry
	loaded atomic.Int64 // Stats.Loaded

	// The counters of Stats (SetObs) live only in handles on a child of
	// the wired registry; the entry gauge follows len(log).
	obsQueries, obsHits, obsEvalHits, obsSubsumeHits       *obs.Counter
	obsSolverCalls, obsSliceSolves, obsUnknowns, obsStores *obs.Counter
	obsEntries                                             *obs.Gauge
	// obsResolveUS buckets end-to-end resolve latency (lookup + slicing +
	// residual solve) by constraint-set size; obsLargeSets counts resolves
	// beyond largeSetThreshold elements.
	obsResolveUS [4]*obs.Histogram
	obsLargeSets *obs.Counter
	tracer       *obs.Tracer
}

// SetObs wires the cache into an observability bundle: hit/miss/store
// counters under "qcache.*", an entry-count gauge, and per-hit trace
// events classed "exact" | "subsume" | "eval". The counters restart at
// zero, so a cache shared by several sessions counts the run of the
// last one wired; a nil o gives them a registry of their own. Call
// before sharing the cache across workers.
func (c *Cache) SetObs(o *obs.Obs) {
	m := o.Registry().Child()
	c.obsQueries = m.Counter("qcache.queries")
	c.obsHits = m.Counter("qcache.hits")
	c.obsEvalHits = m.Counter("qcache.eval_hits")
	c.obsSubsumeHits = m.Counter("qcache.subsume_hits")
	c.obsSolverCalls = m.Counter("qcache.solver_calls")
	c.obsSliceSolves = m.Counter("qcache.slice_solves")
	c.obsUnknowns = m.Counter("qcache.unknowns")
	c.obsStores = m.Counter("qcache.stores")
	c.obsEntries = m.Gauge("qcache.entries")
	c.mu.Lock()
	c.obsEntries.Set(int64(len(c.log)))
	c.mu.Unlock()
	for i, size := range [4]string{"le8", "le64", "le256", "gt256"} {
		c.obsResolveUS[i] = m.Histogram("qcache.resolve_us."+size, obs.LatencyBoundsUS)
	}
	c.obsLargeSets = m.Counter("qcache.large_sets")
	c.tracer = o.Trace()
}

// resolveHist picks the resolve-latency histogram for a constraint set
// of n elements.
func (c *Cache) resolveHist(n int) *obs.Histogram {
	switch {
	case n <= 8:
		return c.obsResolveUS[0]
	case n <= 64:
		return c.obsResolveUS[1]
	case n <= largeSetThreshold:
		return c.obsResolveUS[2]
	default:
		return c.obsResolveUS[3]
	}
}

// hit records one cache-answered query of the given class.
func (c *Cache) hit(counter *obs.Counter, class string) {
	counter.Inc()
	if c.tracer != nil {
		c.tracer.Emit(obs.Event{Ev: obs.EvCacheHit, Class: class})
	}
}

// New creates an empty cache for expressions of b.
func New(b *smt.Builder, _ Options) *Cache {
	c := &Cache{
		b:          b,
		exact:      map[uint64]*entry{},
		satByElem:  map[uint64][]*entry{},
		unsatByMin: map[uint64][]*entry{},
	}
	c.SetObs(nil)
	return c
}

// Stats returns a consistent-enough snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Queries:     c.obsQueries.Value(),
		Hits:        c.obsHits.Value(),
		EvalHits:    c.obsEvalHits.Value(),
		SubsumeHits: c.obsSubsumeHits.Value(),
		SolverCalls: c.obsSolverCalls.Value(),
		SliceSolves: c.obsSliceSolves.Value(),
		Unknowns:    c.obsUnknowns.Value(),
		Stores:      c.obsStores.Value(),
		Loaded:      c.loaded.Load(),
		Entries:     c.obsEntries.Value(),
	}
}

// ValidateModel reports whether m satisfies every condition. It is the
// cache-independent correctness oracle: the cache runs it before handing
// out any cached or merged model, and tests use it to audit hits. The
// whole set is evaluated by one smt.Evaluator, so a shared prefix is
// walked once per validated model, and its pooled memo is released for
// the next validation.
func ValidateModel(conds []*smt.Expr, m smt.Assignment) bool {
	ev := smt.NewEvaluator(m)
	defer ev.Release()
	for _, e := range conds {
		if ev.Eval(e) != 1 {
			return false
		}
	}
	return true
}

// Check determines the satisfiability of the conjunction of conds,
// consulting and updating the cache and falling back to solver for
// residual SAT work. Each cond must have width 1. hint, when non-nil, is
// an assignment known to satisfy all but the final condition (the
// engine's incumbent input: the flipped branch is last); it enables
// independence slicing. The returned model, like smt.Solver.Check's, may
// leave unconstrained variables unassigned (they read as zero).
//
// Check is safe for concurrent use with distinct solvers; the solver
// itself is only used by the calling goroutine.
func (c *Cache) Check(solver *smt.Solver, conds []*smt.Expr, hint smt.Assignment) (sat bool, model smt.Assignment, unknown bool) {
	live := make([]*smt.Expr, 0, len(conds))
	for _, e := range conds {
		if e.IsTrue() {
			continue
		}
		if e.IsFalse() {
			return false, nil, false
		}
		live = append(live, e)
	}
	if len(live) == 0 {
		return true, smt.Assignment{}, false
	}
	c.obsQueries.Inc()
	t0 := time.Now()
	sat, model, unknown, fromCache := c.resolve(solver, live, hint)
	c.resolveHist(len(live)).ObserveDuration(time.Since(t0))
	if len(live) > largeSetThreshold {
		c.obsLargeSets.Inc()
	}
	if c.OnAnswer != nil && !unknown {
		c.OnAnswer(live, sat, model, fromCache)
	}
	return sat, model, unknown
}

func (c *Cache) resolve(solver *smt.Solver, live []*smt.Expr, hint smt.Assignment) (sat bool, model smt.Assignment, unknown, fromCache bool) {
	elems := c.hashSet(live)
	key := setKey(elems)
	if st, m, ok := c.lookupSet(key, elems, live); ok {
		return st, m, false, true
	}

	if hint != nil {
		if st, m, unk, ok := c.checkSliced(solver, live, hint, key, elems); ok {
			return st, m, unk, false
		}
	}

	// Full solve.
	c.obsSolverCalls.Inc()
	sat, model, unknown = solver.Check(live...)
	if unknown {
		c.obsUnknowns.Inc()
		return false, nil, true, false
	}
	if sat {
		c.storeSat(key, elems, live, model)
	} else {
		c.store(&entry{key: key, elems: elems, sat: false})
	}
	return sat, model, false, false
}

// checkSliced partitions live into independence groups and solves only
// the group containing the final (flipped-branch) condition; the other
// groups are re-satisfied by the hint. ok reports whether slicing
// applied; when false the caller falls back to a full solve.
func (c *Cache) checkSliced(solver *smt.Solver, live []*smt.Expr, hint smt.Assignment, key uint64, elems []uint64) (sat bool, model smt.Assignment, unknown, ok bool) {
	groups := c.slice(live)
	if len(groups) < 2 {
		return false, nil, false, false
	}
	last := len(live) - 1
	var flipped []int
	merged := smt.Assignment{}
	// One evaluator checks every prefix group against the hint, so
	// structure shared between groups is evaluated once.
	hintEv := smt.NewEvaluator(hint)
	defer hintEv.Release()
	for _, g := range groups {
		inFlipped := false
		for _, i := range g {
			if i == last {
				inFlipped = true
				break
			}
		}
		if inFlipped {
			flipped = g
			continue
		}
		// Prefix group: the incumbent input satisfied the whole prefix,
		// so it satisfies this group. Verify (cheap) rather than trust —
		// callers other than the engine may pass arbitrary hints.
		for _, i := range g {
			if hintEv.Eval(live[i]) != 1 {
				return false, nil, false, false
			}
			for _, v := range c.varsOf(live[i]) {
				merged[v] = hint[v]
			}
		}
	}

	sub := make([]*smt.Expr, 0, len(flipped))
	for _, i := range flipped {
		sub = append(sub, live[i])
	}
	subElems := c.hashSet(sub)
	subKey := setKey(subElems)

	var subModel smt.Assignment
	if st, m, hit := c.lookupSet(subKey, subElems, sub); hit {
		if !st {
			// The flipped group alone is unsat, hence so is the superset.
			c.store(&entry{key: key, elems: elems, sat: false})
			return false, nil, false, true
		}
		subModel = m
	} else {
		c.obsSolverCalls.Inc()
		c.obsSliceSolves.Inc()
		st, m, unk := solver.Check(sub...)
		if unk {
			c.obsUnknowns.Inc()
			return false, nil, true, true
		}
		if !st {
			c.store(&entry{key: subKey, elems: subElems, sat: false})
			c.store(&entry{key: key, elems: elems, sat: false})
			return false, nil, false, true
		}
		c.storeSat(subKey, subElems, sub, m)
		subModel = m
	}

	for _, i := range flipped {
		for _, v := range c.varsOf(live[i]) {
			merged[v] = subModel[v]
		}
	}
	// Groups are variable-disjoint, so the merge must satisfy the whole
	// set; the check guards against misuse (a hint overlapping the
	// flipped group's variables would have been caught by slicing).
	if !ValidateModel(live, merged) {
		return false, nil, false, false
	}
	c.storeSat(key, elems, live, merged)
	return true, merged, false, true
}

// lookupSet resolves a canonicalized set from the cache alone: exact key,
// unsat subset subsumption, then bounded model reuse. ok reports whether
// the cache answered.
func (c *Cache) lookupSet(key uint64, elems []uint64, conds []*smt.Expr) (sat bool, model smt.Assignment, ok bool) {
	if ent := c.getExact(key); ent != nil {
		if !ent.sat {
			c.hit(c.obsHits, "exact")
			return false, nil, true
		}
		if m := c.hydrate(ent); ValidateModel(conds, m) {
			c.hit(c.obsHits, "exact")
			return true, m, true
		}
		// Key collision or stale persisted model: fall through and let
		// the normal path re-solve (the store keeps the first entry, so
		// this query will keep re-solving — correct, merely unlucky).
	}
	if c.unsatSubset(elems) {
		c.hit(c.obsSubsumeHits, "subsume")
		c.store(&entry{key: key, elems: elems, sat: false})
		return false, nil, true
	}
	for _, ent := range c.satCandidates(elems) {
		if m := c.hydrate(ent); ValidateModel(conds, m) {
			c.hit(c.obsEvalHits, "eval")
			c.storeSat(key, elems, conds, m)
			return true, m, true
		}
	}
	return false, nil, false
}

func (c *Cache) getExact(key uint64) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exact[key]
}

// unsatSubset reports whether some cached unsat set is a subset of elems.
// An unsat entry is indexed under its minimum element, so an entry found
// under elems[i] is a subset iff its sorted elements occur, in order, in
// the sorted tail elems[i:].
func (c *Cache) unsatSubset(elems []uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range elems {
		for _, u := range c.unsatByMin[e] {
			if sortedSubset(u.elems, elems[i:]) {
				return true
			}
		}
	}
	return false
}

// sortedSubset reports whether every element of sub occurs in set; both
// are sorted and duplicate-free, so one merge pass decides it.
func sortedSubset(sub, set []uint64) bool {
	if len(sub) > len(set) {
		return false
	}
	j := 0
	for _, h := range sub {
		for j < len(set) && set[j] < h {
			j++
		}
		if j == len(set) || set[j] != h {
			return false
		}
		j++
	}
	return true
}

// satCandidates gathers up to maxCandidates distinct cached sat entries
// sharing at least one element with elems. Entries indexed under more
// elements are found earlier; supersets of elems (whose models are
// guaranteed to validate) are indexed under every element and thus
// always candidates.
func (c *Cache) satCandidates(elems []uint64) []*entry {
	var out []*entry
	seen := getMarks()
	defer putMarks(seen)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range elems {
		for _, ent := range c.satByElem[e] {
			if seen.add(ent.seq) {
				out = append(out, ent)
			}
		}
		if len(out) >= maxCandidates {
			out = out[:maxCandidates]
			break
		}
	}
	return out
}

// store inserts an immutable entry found by a lookup.
func (c *Cache) store(ent *entry) {
	if c.insert(ent) {
		c.obsStores.Inc()
	}
}

// insert adds an immutable entry and indexes it, and reports whether it
// did: the first writer of a key wins.
func (c *Cache) insert(ent *entry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.exact[ent.key]; dup {
		return false
	}
	ent.seq = len(c.log)
	c.log = append(c.log, ent)
	c.exact[ent.key] = ent
	if ent.sat {
		for _, e := range ent.elems {
			if len(c.satByElem[e]) < maxElemList {
				c.satByElem[e] = append(c.satByElem[e], ent)
			}
		}
	} else if min := ent.elems[0]; len(c.unsatByMin[min]) < maxElemList {
		c.unsatByMin[min] = append(c.unsatByMin[min], ent)
	}
	c.obsEntries.Set(int64(len(c.log)))
	return true
}

// storeSat inserts a sat entry whose model is model restricted to the
// variables of conds.
func (c *Cache) storeSat(key uint64, elems []uint64, conds []*smt.Expr, model smt.Assignment) {
	ent := &entry{key: key, elems: elems, sat: true}
	ent.byID.Store(c.project(conds, model))
	c.store(ent)
}

// project restricts model to the variables of conds.
func (c *Cache) project(conds []*smt.Expr, model smt.Assignment) *idModel {
	r := &idModel{}
	seen := getMarks()
	defer putMarks(seen)
	for _, e := range conds {
		for _, v := range c.varsOf(e) {
			if seen.add(v) {
				r.ids = append(r.ids, int32(v))
				r.vals = append(r.vals, model[v])
			}
		}
	}
	return r
}

// names returns ent's model keyed by variable name (nil for unsat). The
// name form of a local entry is built on first use and kept.
func (c *Cache) names(ent *entry) map[string]uint64 {
	if m := ent.byName.Load(); m != nil {
		return *m
	}
	r := ent.byID.Load()
	if r == nil {
		return nil
	}
	m := make(map[string]uint64, len(r.ids))
	for i, id := range r.ids {
		m[c.b.VarName(int(id))] = r.vals[i]
	}
	ent.byName.CompareAndSwap(nil, &m)
	return *ent.byName.Load()
}

// hydrate returns ent's model as an assignment to builder variable ids.
// A loaded entry's names are resolved once every name is known to the
// builder, and the result kept. Until then each lookup resolves again,
// since the builder may have minted the missing names meanwhile; names
// still unknown are skipped, as no condition of this builder can
// mention them.
func (c *Cache) hydrate(ent *entry) smt.Assignment {
	r := ent.byID.Load()
	if r == nil {
		names := *ent.byName.Load()
		r = &idModel{ids: make([]int32, 0, len(names)), vals: make([]uint64, 0, len(names))}
		for name, v := range names {
			if id, ok := c.b.VarID(name); ok {
				r.ids = append(r.ids, int32(id))
				r.vals = append(r.vals, v)
			}
		}
		if len(r.ids) == len(names) {
			ent.byID.Store(r)
		}
	}
	out := make(smt.Assignment, len(r.ids))
	for i, id := range r.ids {
		out[int(id)] = r.vals[i]
	}
	return out
}
