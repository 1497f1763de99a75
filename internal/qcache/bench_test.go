package qcache

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"rvcte/internal/smt"
)

// benchConds returns the i-th distinct two-group constraint set: an
// equality pinning x and a range constraint on y — the generic shape of
// a path-condition prefix plus flipped branch.
func benchConds(b *smt.Builder, x, y *smt.Expr, i int) []*smt.Expr {
	return []*smt.Expr{
		b.Eq(x, b.Const(32, uint64(i))),
		b.Ult(y, b.Const(32, uint64(i%1000)+1)),
	}
}

// BenchmarkQueryCacheHit measures the exact-hit path: canonicalization,
// lookup and the Eval-based model validation, with no SAT work.
func BenchmarkQueryCacheHit(b *testing.B) {
	bld := smt.NewBuilder()
	x, y := bld.Var(32, "x"), bld.Var(32, "y")
	c := New(bld, Options{})
	conds := benchConds(bld, x, y, 7)
	solver := smt.NewSolver(bld)
	if sat, _, _ := c.Check(solver, conds, nil); !sat {
		b.Fatal("seed query must be sat")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sat, _, _ := c.Check(solver, conds, nil); !sat {
			b.Fatal("hit must stay sat")
		}
	}
	if st := c.Stats(); st.SolverCalls != 1 {
		b.Fatalf("benchmark must not re-solve (%+v)", st)
	}
}

// BenchmarkQueryCacheMiss measures the miss path end to end: hashing a
// fresh set, the failed lookups, the SAT solve and the store.
func BenchmarkQueryCacheMiss(b *testing.B) {
	bld := smt.NewBuilder()
	x, y := bld.Var(32, "x"), bld.Var(32, "y")
	sets := make([][]*smt.Expr, b.N)
	for i := range sets {
		sets[i] = benchConds(bld, x, y, i)
	}
	c := New(bld, Options{})
	solver := smt.NewSolver(bld)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sat, _, _ := c.Check(solver, sets[i], nil); !sat {
			b.Fatal("miss must be sat")
		}
	}
}

// BenchmarkQueryCacheEvalReuse measures the counterexample-cache path:
// every query is a fresh set (no exact hit possible) sharing one element
// with a cached sat entry whose model happens to satisfy the rest, so
// each iteration is answered by model re-evaluation instead of SAT.
func BenchmarkQueryCacheEvalReuse(b *testing.B) {
	bld := smt.NewBuilder()
	x, y := bld.Var(32, "x"), bld.Var(32, "y")
	c := New(bld, Options{})
	solver := smt.NewSolver(bld)
	pin := bld.Eq(x, bld.Const(32, 3))
	if sat, _, _ := c.Check(solver, []*smt.Expr{pin, bld.Ult(y, bld.Const(32, 10))}, nil); !sat {
		b.Fatal("seed query must be sat")
	}
	sets := make([][]*smt.Expr, b.N)
	for i := range sets {
		// The cached model (y < 10) satisfies every wider bound.
		sets[i] = []*smt.Expr{pin, bld.Ult(y, bld.Const(32, uint64(i)+1000))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sat, _, _ := c.Check(solver, sets[i], nil); !sat {
			b.Fatal("reuse query must be sat")
		}
	}
	b.StopTimer()
	if st := c.Stats(); st.SolverCalls != 1 {
		b.Fatalf("reuse benchmark must not re-solve (%+v)", st)
	}
}

// BenchmarkQueryCacheParallel drives one shared cache from
// b.RunParallel goroutines, one solver each: the sharing pattern of the
// parallel engine's workers. Queries draw one to four conditions from a
// shared 30-condition pool, as TestConcurrentSharedCache does; the 256
// pool sets are solved before the timer starts. Three queries in four
// repeat a pool set, an exact hit. The fourth adds a fresh bound y < k
// to an unsat pool set: a new key, which the cache answers by unsat
// subsumption and stores. That mix runs every step the cache's mutex
// guards (hashing new nodes, exact lookups, subset scans, inserts) and
// no SAT solve, which runs outside the lock and, at milliseconds a
// query, would hide what the lock costs. Run it with -cpu 1,2,... to
// see that cost as goroutines are added.
func BenchmarkQueryCacheParallel(b *testing.B) {
	bld := smt.NewBuilder()
	vars := []*smt.Expr{bld.Var(8, "a"), bld.Var(8, "b"), bld.Var(8, "c")}
	rng := rand.New(rand.NewSource(11))
	pool := make([]*smt.Expr, 30)
	for i := range pool {
		pool[i] = randCond(rng, bld, vars)
	}
	c := New(bld, Options{})
	solver := smt.NewSolver(bld)
	var sets, unsat [][]*smt.Expr
	for len(sets) < 256 {
		var set []*smt.Expr
		for n := 1 + rng.Intn(4); n > 0; n-- {
			set = append(set, pool[rng.Intn(len(pool))])
		}
		sets = append(sets, set)
		if sat, _, _ := c.Check(solver, set, nil); !sat {
			unsat = append(unsat, set[:len(set):len(set)])
		}
	}
	if len(unsat) == 0 {
		b.Fatal("the pool sets must include an unsat one")
	}
	y := bld.Var(32, "y")
	fresh := make([]*smt.Expr, b.N/4+64)
	for i := range fresh {
		fresh[i] = bld.Ult(y, bld.Const(32, uint64(i)+1))
	}
	warm := c.Stats().SolverCalls
	var seed, next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		solver := smt.NewSolver(bld)
		for i := 0; pb.Next(); i++ {
			conds := sets[rng.Intn(len(sets))]
			if i%4 == 0 {
				f := fresh[int(next.Add(1))%len(fresh)]
				conds = append(unsat[rng.Intn(len(unsat))], f)
			}
			if _, _, unknown := c.Check(solver, conds, nil); unknown {
				b.Error("unbudgeted query came back unknown")
				return
			}
		}
	})
	b.StopTimer()
	if st := c.Stats(); st.SolverCalls != warm {
		b.Fatalf("timed queries must not reach the solver (%+v)", st)
	}
}

// largeConds builds an n-element constraint set over independent byte
// variables — the shape of a deep path condition (a long prefix of small
// per-variable facts). At this size canonicalization, the sorted key and
// the candidate Eval scans dominate resolve latency, not SAT work.
func largeConds(bld *smt.Builder, n int) []*smt.Expr {
	conds := make([]*smt.Expr, 0, n)
	for i := 0; len(conds) < n; i++ {
		v := bld.Var(8, fmt.Sprintf("lv[%d]", i))
		conds = append(conds, bld.Ne(v, bld.Const(8, uint64(i%251))))
		if len(conds) < n {
			conds = append(conds, bld.Ult(v, bld.Const(8, 250)))
		}
	}
	return conds
}

// BenchmarkQCacheResolveLarge guards the canonicalization cost of an
// ~800-element constraint set: after the seed solve every iteration is
// an exact hit, so the loop measures hashing, key construction and
// lookup at BMC/deep-path scale with zero SAT work.
func BenchmarkQCacheResolveLarge(b *testing.B) {
	bld := smt.NewBuilder()
	conds := largeConds(bld, 800)
	c := New(bld, Options{})
	solver := smt.NewSolver(bld)
	if sat, _, _ := c.Check(solver, conds, nil); !sat {
		b.Fatal("seed query must be sat")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sat, _, _ := c.Check(solver, conds, nil); !sat {
			b.Fatal("hit must stay sat")
		}
	}
	if st := c.Stats(); st.SolverCalls != 1 {
		b.Fatalf("benchmark must not re-solve (%+v)", st)
	}
}

// sharedPrefixConds builds n conditions over a running sum of byte
// inputs: condition i bounds the sum of the first i+1 inputs (every
// condition re-reads the whole prefix DAG before it) or pins one input
// away from a constant — the shape of a deep path condition, where
// validating each condition on its own re-walks the shared prefix.
func sharedPrefixConds(bld *smt.Builder, n int) []*smt.Expr {
	conds := make([]*smt.Expr, 0, n)
	var acc *smt.Expr
	for i := 0; len(conds) < n; i++ {
		v := bld.Var(8, fmt.Sprintf("sp[%d]", i))
		if acc == nil {
			acc = bld.ZExt(v, 32)
		} else {
			acc = bld.Add(acc, bld.ZExt(v, 32))
		}
		conds = append(conds, bld.Ule(acc, bld.Const(32, uint64(200*(i+1)))))
		if len(conds) < n {
			conds = append(conds, bld.Ne(v, bld.Const(8, uint64(i%251))))
		}
	}
	return conds
}

// BenchmarkValidateModel measures model validation of a 256-condition
// shared-prefix set: directly, and as the exact-hit path of Check that
// runs it on every hit (after the seed solve there is no SAT work).
func BenchmarkValidateModel(b *testing.B) {
	bld := smt.NewBuilder()
	conds := sharedPrefixConds(bld, 256)
	c := New(bld, Options{})
	solver := smt.NewSolver(bld)
	sat, model, _ := c.Check(solver, conds, nil)
	if !sat {
		b.Fatal("seed query must be sat")
	}
	b.Run("validate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !ValidateModel(conds, model) {
				b.Fatal("model must validate")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sat, _, _ := c.Check(solver, conds, nil); !sat {
				b.Fatal("hit must stay sat")
			}
		}
	})
	if st := c.Stats(); st.SolverCalls != 1 {
		b.Fatalf("benchmark must not re-solve (%+v)", st)
	}
}
