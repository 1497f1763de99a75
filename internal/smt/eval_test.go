package smt

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// freshEval is the reference evaluator: evalRec under a memo nobody
// else has touched, so no pooled storage is involved.
func freshEval(e *Expr, a Assignment) uint64 {
	return evalRec(e, a, map[*Expr]uint64{})
}

// sharedHolds validates a condition set the way qcache.ValidateModel
// does: one Evaluator (one pooled memo) for the whole set, stopping at
// the first condition that does not hold, then released for reuse.
func sharedHolds(conds []*Expr, a Assignment) bool {
	ev := NewEvaluator(a)
	defer ev.Release()
	for _, e := range conds {
		if ev.Eval(e) != 1 {
			return false
		}
	}
	return true
}

// freshHolds is the per-condition reference for sharedHolds.
func freshHolds(conds []*Expr, a Assignment) bool {
	for _, e := range conds {
		if freshEval(e, a) != 1 {
			return false
		}
	}
	return true
}

// randomCondSet builds n width-1 conditions over a shared pool of random
// 32-bit DAGs (randomExpr, as in TestEvalRandomDags), so the conditions
// share sub-expressions the way a path-condition prefix does.
func randomCondSet(rng *rand.Rand, b *Builder, vars []*Expr, n int) []*Expr {
	pool := make([]*Expr, 12)
	for i := range pool {
		pool[i] = randomExpr(rng, b, vars, 4)
	}
	conds := make([]*Expr, 0, n)
	for len(conds) < n {
		x, y := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		var c *Expr
		switch rng.Intn(4) {
		case 0:
			c = b.Ult(x, y)
		case 1:
			c = b.Ule(x, y)
		case 2:
			c = b.Slt(x, y)
		default:
			c = b.Ne(x, y)
		}
		if c.IsConst() {
			continue
		}
		conds = append(conds, c)
	}
	return conds
}

func randomEnv(rng *rand.Rand, nvars int) Assignment {
	env := Assignment{}
	for i := 0; i < nvars; i++ {
		if rng.Intn(5) != 0 { // leave some unassigned: they read as zero
			env[i] = uint64(rng.Uint32())
		}
	}
	return env
}

// TestSharedMemoMatchesPerConditionEval: shared-memo validation agrees
// with per-condition evaluation on random DAG condition sets, and so do
// Eval and an Evaluator on every single condition.
func TestSharedMemoMatchesPerConditionEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder()
	vars := []*Expr{b.Var(32, "a"), b.Var(32, "b"), b.Var(32, "c")}
	held := 0
	for iter := 0; iter < 300; iter++ {
		conds := randomCondSet(rng, b, vars, 1+rng.Intn(8))
		env := randomEnv(rng, len(vars))
		want := freshHolds(conds, env)
		if got := sharedHolds(conds, env); got != want {
			t.Fatalf("iter %d: shared memo=%v, per-condition=%v", iter, got, want)
		}
		if want {
			held++
		}
		ev := NewEvaluator(env)
		for _, c := range conds {
			w := freshEval(c, env)
			if got := Eval(c, env); got != w {
				t.Fatalf("iter %d: Eval=%d want %d", iter, got, w)
			}
			if got := ev.Eval(c); got != w {
				t.Fatalf("iter %d: Evaluator.Eval=%d want %d", iter, got, w)
			}
		}
		ev.Release()
	}
	// Both verdicts must be exercised for the agreement to mean much.
	if held == 0 || held == 300 {
		t.Fatalf("degenerate generator: %d/300 sets held", held)
	}
}

// TestSharedMemoFalseMidway: a set whose only false condition sits in the
// middle is rejected, and the memo that call abandoned part-way does not
// leak into the next validation of the true conditions alone.
func TestSharedMemoFalseMidway(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	b := NewBuilder()
	vars := []*Expr{b.Var(32, "a"), b.Var(32, "b"), b.Var(32, "c")}
	built := 0
	for iter := 0; iter < 400 && built < 100; iter++ {
		env := randomEnv(rng, len(vars))
		var ok []*Expr
		var bad *Expr
		for _, c := range randomCondSet(rng, b, vars, 16) {
			if freshEval(c, env) == 1 {
				ok = append(ok, c)
			} else if bad == nil {
				bad = c
			}
		}
		if len(ok) < 2 || bad == nil {
			continue
		}
		built++
		mid := len(ok) / 2
		set := append(append(append([]*Expr{}, ok[:mid]...), bad), ok[mid:]...)
		if sharedHolds(set, env) {
			t.Fatalf("set with a false condition at %d/%d validated", mid, len(set))
		}
		if !sharedHolds(ok, env) {
			t.Fatal("true conditions rejected after an aborted validation")
		}
	}
	if built < 50 {
		t.Fatalf("only %d mid-way sets built", built)
	}
}

// TestSharedMemoBackToBackAssignments: the same condition set validated
// alternately under two assignments gives each assignment's own
// verdict, so no memo entry computed under one survives into the other.
func TestSharedMemoBackToBackAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := NewBuilder()
	x := b.Var(32, "x")
	// One condition per bit of x over a shared sum: a stale memo entry
	// for the sum or any bit test flips the verdict.
	sum := b.Add(x, b.Const(32, 0x1234))
	var conds []*Expr
	for i := 0; i < 32; i++ {
		bit := b.Extract(sum, uint8(i), uint8(i))
		conds = append(conds, b.Eq(bit, b.Const(1, uint64((0x5a5a5a5a>>i)&1))))
	}
	good := Assignment{0: (0x5a5a5a5a - 0x1234) & 0xffffffff}
	for i := 0; i < 200; i++ {
		if !sharedHolds(conds, good) {
			t.Fatalf("round %d: satisfying assignment rejected", i)
		}
		bad := Assignment{0: good[0] ^ 1<<uint(rng.Intn(32))}
		if sharedHolds(conds, bad) {
			t.Fatalf("round %d: assignment %#x accepted", i, bad[0])
		}
		if Eval(sum, bad) != (bad[0]+0x1234)&0xffffffff {
			t.Fatalf("round %d: Eval saw a stale memo", i)
		}
	}

	vars := []*Expr{b.Var(32, "a"), b.Var(32, "b"), b.Var(32, "c")}
	for iter := 0; iter < 200; iter++ {
		set := randomCondSet(rng, b, vars, 8)
		e1, e2 := randomEnv(rng, 4), randomEnv(rng, 4)
		w1, w2 := freshHolds(set, e1), freshHolds(set, e2)
		for k := 0; k < 3; k++ {
			if sharedHolds(set, e1) != w1 || sharedHolds(set, e2) != w2 {
				t.Fatalf("iter %d round %d: verdicts depend on call order", iter, k)
			}
		}
	}
}

// TestEvaluatorReleaseReuse: an evaluator's memo, released and picked up
// by a later evaluator under another assignment, starts empty.
func TestEvaluatorReleaseReuse(t *testing.T) {
	b := NewBuilder()
	x := b.Var(8, "x")
	e := b.Add(x, b.Const(8, 1))
	for v := uint64(0); v < 256; v++ {
		ev := NewEvaluator(Assignment{0: v})
		if got := ev.Eval(e); got != (v+1)&0xff {
			t.Fatalf("x=%d: got %d", v, got)
		}
		ev.Release()
		ev.Release() // idempotent
	}
}

// TestPutMemoDropsOversized: a memo beyond the cap is not recycled, and
// one within it comes back empty.
func TestPutMemoDropsOversized(t *testing.T) {
	big := make(map[*Expr]uint64, maxPooledMemo+1)
	for i := 0; i <= maxPooledMemo; i++ {
		big[&Expr{Val: uint64(i)}] = 1
	}
	putMemo(big)
	if len(big) != maxPooledMemo+1 {
		t.Fatal("oversized memo was cleared, so it was headed back to the pool")
	}
	small := map[*Expr]uint64{{}: 1}
	putMemo(small)
	if len(small) != 0 {
		t.Fatal("recycled memo not cleared")
	}
}

// TestSharedMemoConcurrent: validation from many goroutines at once, each
// under its own assignments, matches the sequential reference (run under
// -race by `make race` to exercise the pooled storage).
func TestSharedMemoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	b := NewBuilder()
	vars := []*Expr{b.Var(32, "a"), b.Var(32, "b"), b.Var(32, "c")}
	type job struct {
		set  []*Expr
		env  Assignment
		want bool
	}
	jobs := make([]job, 64)
	for i := range jobs {
		set := randomCondSet(rng, b, vars, 1+rng.Intn(10))
		env := randomEnv(rng, len(vars))
		jobs[i] = job{set, env, freshHolds(set, env)}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				j := jobs[(w*7+r)%len(jobs)]
				if sharedHolds(j.set, j.env) != j.want {
					errs <- fmt.Sprintf("worker %d round %d: wrong verdict", w, r)
					return
				}
				ev := NewEvaluator(j.env)
				for _, c := range j.set {
					if ev.Eval(c) != freshEval(c, j.env) {
						errs <- fmt.Sprintf("worker %d round %d: evaluator disagrees", w, r)
						return
					}
				}
				ev.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	var msgs []string
	for m := range errs {
		msgs = append(msgs, m)
	}
	if len(msgs) > 0 {
		t.Fatal(strings.Join(msgs, "; "))
	}
}
