package qcache

import (
	"fmt"
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
