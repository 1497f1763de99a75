package qcache

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"rvcte/internal/obs"
	"rvcte/internal/smt"
)

// newEnv returns a builder with three 8-bit variables and a fresh cache.
func newEnv(opt Options) (*smt.Builder, *Cache, []*smt.Expr) {
	b := smt.NewBuilder()
	vars := []*smt.Expr{b.Var(8, "a"), b.Var(8, "b"), b.Var(8, "c")}
	return b, New(b, opt), vars
}

func TestExactHit(t *testing.T) {
	b, c, v := newEnv(Options{})
	conds := []*smt.Expr{b.Ult(v[0], b.Const(8, 10)), b.Eq(v[1], b.Const(8, 3))}

	s1 := smt.NewSolver(b)
	sat, m, unknown := c.Check(s1, conds, nil)
	if !sat || unknown {
		t.Fatalf("first check: sat=%v unknown=%v", sat, unknown)
	}
	if !ValidateModel(conds, m) {
		t.Fatalf("first model invalid: %v", m)
	}

	s2 := smt.NewSolver(b)
	sat, m, unknown = c.Check(s2, conds, nil)
	if !sat || unknown {
		t.Fatalf("second check: sat=%v unknown=%v", sat, unknown)
	}
	if !ValidateModel(conds, m) {
		t.Fatalf("hit model invalid: %v", m)
	}
	if s2.Stats().Queries != 0 {
		t.Errorf("exact hit must not touch the solver (ran %d queries)", s2.Stats().Queries)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("hits=%d want 1 (%+v)", st.Hits, st)
	}
}

func TestExactHitIgnoresOrderAndDuplicates(t *testing.T) {
	b, c, v := newEnv(Options{})
	p := b.Ult(v[0], b.Const(8, 10))
	q := b.Eq(v[1], b.Const(8, 3))

	c.Check(smt.NewSolver(b), []*smt.Expr{p, q}, nil)
	s := smt.NewSolver(b)
	sat, _, _ := c.Check(s, []*smt.Expr{q, p, q}, nil)
	if !sat {
		t.Fatal("permuted set must stay sat")
	}
	if s.Stats().Queries != 0 {
		t.Errorf("canonicalization must make {p,q} and {q,p,q} the same key")
	}
}

func TestUnsatSubsumption(t *testing.T) {
	b, c, v := newEnv(Options{})
	lt := b.Ult(v[0], b.Const(8, 5))
	gt := b.Ugt(v[0], b.Const(8, 10))
	core := []*smt.Expr{lt, gt}

	if sat, _, _ := c.Check(smt.NewSolver(b), core, nil); sat {
		t.Fatal("core must be unsat")
	}
	// Any superset of the unsat core is unsat without solving.
	super := []*smt.Expr{lt, gt, b.Eq(v[1], b.Const(8, 3))}
	s := smt.NewSolver(b)
	if sat, _, _ := c.Check(s, super, nil); sat {
		t.Fatal("superset of an unsat core must be unsat")
	}
	if s.Stats().Queries != 0 {
		t.Errorf("subsumed query must not touch the solver (ran %d)", s.Stats().Queries)
	}
	if st := c.Stats(); st.SubsumeHits != 1 {
		t.Errorf("subsumeHits=%d want 1 (%+v)", st.SubsumeHits, st)
	}
	// The subsumed key is now cached exactly.
	s2 := smt.NewSolver(b)
	c.Check(s2, super, nil)
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("re-query of subsumed set should exact-hit (%+v)", st)
	}
}

func TestModelReuseFromSuperset(t *testing.T) {
	b, c, v := newEnv(Options{})
	p := b.Eq(v[0], b.Const(8, 7))
	q := b.Eq(v[1], b.Const(8, 1))

	if sat, _, _ := c.Check(smt.NewSolver(b), []*smt.Expr{p, q}, nil); !sat {
		t.Fatal("superset must be sat")
	}
	// The subset {p} shares element p with the cached superset; its model
	// must be reused via Eval without a SAT call.
	s := smt.NewSolver(b)
	sat, m, _ := c.Check(s, []*smt.Expr{p}, nil)
	if !sat || !ValidateModel([]*smt.Expr{p}, m) {
		t.Fatalf("subset reuse failed: sat=%v m=%v", sat, m)
	}
	if s.Stats().Queries != 0 {
		t.Errorf("subset of a cached sat set must reuse its model (ran %d queries)", s.Stats().Queries)
	}
	if st := c.Stats(); st.EvalHits != 1 {
		t.Errorf("evalHits=%d want 1 (%+v)", st.EvalHits, st)
	}
}

func TestIndependenceSlicing(t *testing.T) {
	b, c, v := newEnv(Options{})
	// Prefix constrains a and b (two groups); the flipped branch touches
	// only c. The hint satisfies the prefix.
	prefix := []*smt.Expr{b.Eq(v[0], b.Const(8, 3)), b.Ult(v[1], b.Const(8, 9))}
	flip := b.Eq(v[2], b.Const(8, 200))
	conds := append(append([]*smt.Expr{}, prefix...), flip)
	hint := smt.Assignment{0: 3, 1: 0}

	s := smt.NewSolver(b)
	sat, m, unknown := c.Check(s, conds, hint)
	if !sat || unknown {
		t.Fatalf("sliced check: sat=%v unknown=%v", sat, unknown)
	}
	if !ValidateModel(conds, m) {
		t.Fatalf("merged model invalid: %v", m)
	}
	if m[2] != 200 {
		t.Errorf("flipped-group model: c=%d want 200", m[2])
	}
	st := c.Stats()
	if st.SliceSolves != 1 || st.SolverCalls != 1 {
		t.Errorf("expected exactly one sliced solve (%+v)", st)
	}
	// The sliced group was cached on its own: a different prefix with the
	// same flipped branch reuses it.
	conds2 := []*smt.Expr{b.Eq(v[0], b.Const(8, 4)), flip}
	s2 := smt.NewSolver(b)
	sat, m, _ = c.Check(s2, conds2, smt.Assignment{0: 4})
	if !sat || !ValidateModel(conds2, m) {
		t.Fatalf("second sliced check failed: sat=%v m=%v", sat, m)
	}
	if s2.Stats().Queries != 0 {
		t.Errorf("flipped group cached per-group must re-serve (ran %d queries)", s2.Stats().Queries)
	}
}

// TestSliceGroups: conditions sharing a variable, directly or through a
// chain, land in one group; groups are ordered by first member and keep
// their members in order.
func TestSliceGroups(t *testing.T) {
	b, c, v := newEnv(Options{})
	d := b.Var(8, "d")
	k := func(x uint64) *smt.Expr { return b.Const(8, x) }
	conds := []*smt.Expr{
		b.Ult(v[0], k(1)),              // a
		b.Ult(v[2], k(2)),              // c
		b.Ult(b.Add(v[0], v[1]), k(3)), // a, b
		b.Ult(d, k(4)),                 // d
		b.Ult(v[1], k(9)),              // b
		b.Eq(v[2], d),                  // c, d
	}
	got := fmt.Sprint(c.slice(conds))
	if want := "[[0 2 4] [1 3 5]]"; got != want {
		t.Errorf("groups %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(c.slice(conds[:5])), "[[0 2 4] [1] [3]]"; got != want {
		t.Errorf("groups %s, want %s", got, want)
	}
}

func TestSlicedUnsatPropagates(t *testing.T) {
	b, c, v := newEnv(Options{})
	flip := b.Ult(v[2], b.Const(8, 0)) // nothing is < 0: folded false? Ult folds to const false.
	if !flip.IsFalse() {
		t.Fatal("expected fold")
	}
	// Use a genuinely unsat non-constant group instead: c < 5 && c > 10.
	g := b.And(b.Ult(v[2], b.Const(8, 5)), b.Ugt(v[2], b.Const(8, 10)))
	conds := []*smt.Expr{b.Eq(v[0], b.Const(8, 1)), g}
	sat, _, unknown := c.Check(smt.NewSolver(b), conds, smt.Assignment{0: 1})
	if sat || unknown {
		t.Fatalf("must be unsat: sat=%v unknown=%v", sat, unknown)
	}
	// Both the group key and the full key are now unsat entries; a
	// superset of the group alone subsumes.
	s := smt.NewSolver(b)
	sat, _, _ = c.Check(s, []*smt.Expr{g, b.Eq(v[1], b.Const(8, 2))}, nil)
	if sat {
		t.Fatal("superset of unsat group must be unsat")
	}
	if s.Stats().Queries != 0 {
		t.Errorf("unsat group must subsume supersets (ran %d queries)", s.Stats().Queries)
	}
}

func TestUnknownPassthroughUncached(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var(8, "x")
	y := b.Var(8, "y")
	c := New(b, Options{})
	// Factoring without wraparound (zero-extended operands): only the
	// divisor pairs of 143 solve it, which costs the solver real search.
	hard := b.Eq(b.Mul(b.ZExt(x, 32), b.ZExt(y, 32)), b.Const(32, 143))

	s := smt.NewSolver(b)
	s.MaxConflictsPerQuery = 1
	sat, _, unknown := c.Check(s, []*smt.Expr{hard}, nil)
	if sat || !unknown {
		t.Fatalf("budgeted factoring query: sat=%v unknown=%v", sat, unknown)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("unknown results must not be cached (%+v)", st)
	}
	// An unbudgeted solver later answers the same key for real.
	s2 := smt.NewSolver(b)
	sat, m, unknown := c.Check(s2, []*smt.Expr{hard}, nil)
	if !sat || unknown || smt.Eval(hard, m) != 1 {
		t.Fatalf("unbudgeted re-check: sat=%v unknown=%v m=%v", sat, unknown, m)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("solved result must be cached (%+v)", st)
	}
}

func TestTrivialQueries(t *testing.T) {
	b, c, _ := newEnv(Options{})
	s := smt.NewSolver(b)
	if sat, _, _ := c.Check(s, []*smt.Expr{b.Bool(false)}, nil); sat {
		t.Error("constant false must be unsat")
	}
	sat, m, _ := c.Check(s, []*smt.Expr{b.Bool(true)}, nil)
	if !sat || m == nil {
		t.Error("constant true must be sat with an empty model")
	}
	if st := c.Stats(); st.Queries != 0 {
		t.Errorf("trivial queries must not count (%+v)", st)
	}
}

func TestPersistenceWarmStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.qcache")

	build := func() (*smt.Builder, []*smt.Expr, []*smt.Expr) {
		b := smt.NewBuilder()
		v := []*smt.Expr{b.Var(8, "a"), b.Var(8, "b")}
		satSet := []*smt.Expr{b.Ult(v[0], b.Const(8, 10)), b.Eq(v[1], b.Const(8, 3))}
		unsatSet := []*smt.Expr{b.Ult(v[0], b.Const(8, 5)), b.Ugt(v[0], b.Const(8, 10))}
		return b, satSet, unsatSet
	}

	b1, satSet, unsatSet := build()
	c1 := New(b1, Options{})
	c1.Check(smt.NewSolver(b1), satSet, nil)
	c1.Check(smt.NewSolver(b1), unsatSet, nil)
	if err := c1.Save(path); err != nil {
		t.Fatal(err)
	}

	// A fresh process: new builder (ids may differ in principle; names
	// are what the persisted keys and models rely on), warm cache.
	b2, satSet2, unsatSet2 := build()
	c2 := New(b2, Options{})
	if err := c2.Load(path); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Loaded == 0 {
		t.Fatalf("no entries loaded (%+v)", st)
	}
	s := smt.NewSolver(b2)
	sat, m, _ := c2.Check(s, satSet2, nil)
	if !sat || !ValidateModel(satSet2, m) {
		t.Fatalf("warm sat check failed: sat=%v m=%v", sat, m)
	}
	if sat, _, _ := c2.Check(s, unsatSet2, nil); sat {
		t.Fatal("warm unsat check failed")
	}
	if s.Stats().Queries != 0 {
		t.Errorf("warm-start queries must be served from disk entries (ran %d)", s.Stats().Queries)
	}
}

func TestLoadMissingFileIsNotExist(t *testing.T) {
	b := smt.NewBuilder()
	c := New(b, Options{})
	if err := c.Load(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("expected an error for a missing file")
	}
}

// randCond builds a random width-1 condition over vars. Comparisons of
// small linear/bitwise combinations keep every query easy for the solver
// while still exercising sharing, folding and multi-variable groups.
func randCond(rng *rand.Rand, b *smt.Builder, vars []*smt.Expr) *smt.Expr {
	operand := func() *smt.Expr {
		v := vars[rng.Intn(len(vars))]
		switch rng.Intn(4) {
		case 0:
			return v
		case 1:
			return b.Add(v, b.Const(8, uint64(rng.Intn(256))))
		case 2:
			return b.Xor(v, vars[rng.Intn(len(vars))])
		default:
			return b.And(v, b.Const(8, uint64(rng.Intn(256))))
		}
	}
	l, r := operand(), b.Const(8, uint64(rng.Intn(64)))
	switch rng.Intn(4) {
	case 0:
		return b.Eq(l, r)
	case 1:
		return b.Ult(l, r)
	case 2:
		return b.Ule(l, r)
	default:
		return b.Not(b.Eq(l, r))
	}
}

// TestPropertyMatchesSolver is the cache correctness property test: for
// random constraint sets, the cache must agree with a fresh solver on
// satisfiability, and every sat answer — hit or miss — must carry a model
// that satisfies the queried set (audited with the cache-independent
// ValidateModel).
func TestPropertyMatchesSolver(t *testing.T) {
	b := smt.NewBuilder()
	vars := []*smt.Expr{b.Var(8, "a"), b.Var(8, "b"), b.Var(8, "c")}
	c := New(b, Options{})
	rng := rand.New(rand.NewSource(7))

	pool := make([]*smt.Expr, 40)
	for i := range pool {
		pool[i] = randCond(rng, b, vars)
	}
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.Intn(5)
		conds := make([]*smt.Expr, 0, n)
		for i := 0; i < n; i++ {
			conds = append(conds, pool[rng.Intn(len(pool))])
		}
		var hint smt.Assignment
		if rng.Intn(2) == 0 {
			hint = smt.Assignment{0: uint64(rng.Intn(256)), 1: uint64(rng.Intn(256)), 2: uint64(rng.Intn(256))}
		}
		gotSat, gotModel, unknown := c.Check(smt.NewSolver(b), conds, hint)
		if unknown {
			t.Fatalf("iter %d: unexpected unknown", iter)
		}
		wantSat, _, _ := smt.NewSolver(b).Check(conds...)
		if gotSat != wantSat {
			t.Fatalf("iter %d: cache says sat=%v, solver says %v for %v", iter, gotSat, wantSat, conds)
		}
		if gotSat && !ValidateModel(conds, gotModel) {
			t.Fatalf("iter %d: model %v does not satisfy %v", iter, gotModel, conds)
		}
	}
	st := c.Stats()
	if st.Hits+st.EvalHits+st.SubsumeHits == 0 {
		t.Errorf("property run never hit the cache (%+v)", st)
	}
	t.Logf("property stats: %+v", st)
}

// TestConcurrentSharedCache drives one cache from many goroutines with
// per-goroutine solvers — the parallel engine's sharing pattern — and
// audits every sat model. Run under -race.
func TestConcurrentSharedCache(t *testing.T) {
	b := smt.NewBuilder()
	vars := []*smt.Expr{b.Var(8, "a"), b.Var(8, "b"), b.Var(8, "c")}
	c := New(b, Options{})

	seedRng := rand.New(rand.NewSource(11))
	pool := make([]*smt.Expr, 30)
	for i := range pool {
		pool[i] = randCond(seedRng, b, vars)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			solver := smt.NewSolver(b)
			for i := 0; i < 100; i++ {
				n := 1 + rng.Intn(4)
				conds := make([]*smt.Expr, 0, n)
				for j := 0; j < n; j++ {
					conds = append(conds, pool[rng.Intn(len(pool))])
				}
				sat, m, unknown := c.Check(solver, conds, nil)
				if unknown {
					errs <- fmt.Errorf("goroutine %d: unknown", seed)
					return
				}
				if sat && !ValidateModel(conds, m) {
					errs <- fmt.Errorf("goroutine %d: invalid hit model %v for %v", seed, m, conds)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestResolveLatencyHistograms: with an obs bundle wired, every
// non-trivial Check lands in exactly one size-keyed resolve histogram,
// and sets beyond largeSetThreshold elements tick the large-set counter.
func TestResolveLatencyHistograms(t *testing.T) {
	bld := smt.NewBuilder()
	c := New(bld, Options{})
	ob := obs.New()
	c.SetObs(ob)
	solver := smt.NewSolver(bld)

	small := []*smt.Expr{bld.Eq(bld.Var(32, "hx"), bld.Const(32, 1))}
	if sat, _, _ := c.Check(solver, small, nil); !sat {
		t.Fatal("small set must be sat")
	}
	large := largeConds(bld, largeSetThreshold+44)
	if sat, _, _ := c.Check(solver, large, nil); !sat {
		t.Fatal("large set must be sat")
	}

	snap := ob.Snapshot()
	for name, want := range map[string]int64{
		"qcache.resolve_us.le8":   1,
		"qcache.resolve_us.le64":  0,
		"qcache.resolve_us.le256": 0,
		"qcache.resolve_us.gt256": 1,
	} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Fatalf("histogram %s missing (have %v)", name, snap.Histograms)
		}
		if h.Count != want {
			t.Errorf("%s count = %d, want %d", name, h.Count, want)
		}
	}
	if got := snap.Counters["qcache.large_sets"]; got != 1 {
		t.Errorf("qcache.large_sets = %d, want 1", got)
	}
}

// TestHydrateResolvesLateNames: an imported model whose names the
// builder does not know yet is resolved again on later lookups, so once
// the builder mints the missing variable the entry serves it in full.
func TestHydrateResolvesLateNames(t *testing.T) {
	b1 := smt.NewBuilder()
	a1, x1 := b1.Var(8, "a"), b1.Var(8, "b")
	src := New(b1, Options{})
	if sat, _, _ := src.Check(smt.NewSolver(b1), []*smt.Expr{b1.Eq(a1, b1.Const(8, 1)), b1.Eq(x1, b1.Const(8, 2))}, nil); !sat {
		t.Fatal("seed query must be sat")
	}

	b2 := smt.NewBuilder()
	a2 := b2.Var(8, "a")
	c := New(b2, Options{})
	if n := c.ImportEntries(src.ExportEntries()); n == 0 {
		t.Fatal("nothing imported")
	}
	s := smt.NewSolver(b2)
	// Only "a" resolves: the superset's model answers the subset query.
	if sat, m, _ := c.Check(s, []*smt.Expr{b2.Eq(a2, b2.Const(8, 1))}, nil); !sat || m[int(a2.Val)] != 1 {
		t.Fatalf("subset query: sat=%v model=%v", sat, m)
	}
	x2 := b2.Var(8, "b")
	sat, m, _ := c.Check(s, []*smt.Expr{b2.Eq(a2, b2.Const(8, 1)), b2.Eq(x2, b2.Const(8, 2))}, nil)
	if !sat || m[int(x2.Val)] != 2 {
		t.Fatalf("full query after minting b: sat=%v model=%v", sat, m)
	}
	if s.Stats().Queries != 0 {
		t.Errorf("the imported entry must answer both queries; the solver ran %d", s.Stats().Queries)
	}
}
