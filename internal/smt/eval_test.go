package smt

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// freshEval is the reference evaluator: refEvalRec under a map memo
// nobody else has touched, so no pooled or id-indexed storage is
// involved.
func freshEval(e *Expr, a Assignment) uint64 {
	return refEvalRec(e, a, map[*Expr]uint64{})
}

// refEvalRec is the pointer-keyed map-memo evaluator that the id-indexed
// memo replaced, kept as the oracle for it: same semantics, memoized by
// node identity, so it cannot confuse nodes of different Builders.
func refEvalRec(e *Expr, a Assignment, cache map[*Expr]uint64) uint64 {
	if v, ok := cache[e]; ok {
		return v
	}
	var v uint64
	switch e.Kind {
	case KConst:
		v = e.Val
	case KVar:
		v = a[int(e.Val)] & mask(e.Width)
	case KAdd:
		v = refEvalRec(e.K0, a, cache) + refEvalRec(e.K1, a, cache)
	case KSub:
		v = refEvalRec(e.K0, a, cache) - refEvalRec(e.K1, a, cache)
	case KMul:
		v = refEvalRec(e.K0, a, cache) * refEvalRec(e.K1, a, cache)
	case KUDiv:
		d := refEvalRec(e.K1, a, cache)
		if d == 0 {
			v = mask(e.Width)
		} else {
			v = refEvalRec(e.K0, a, cache) / d
		}
	case KURem:
		d := refEvalRec(e.K1, a, cache)
		if d == 0 {
			v = refEvalRec(e.K0, a, cache)
		} else {
			v = refEvalRec(e.K0, a, cache) % d
		}
	case KAnd:
		v = refEvalRec(e.K0, a, cache) & refEvalRec(e.K1, a, cache)
	case KOr:
		v = refEvalRec(e.K0, a, cache) | refEvalRec(e.K1, a, cache)
	case KXor:
		v = refEvalRec(e.K0, a, cache) ^ refEvalRec(e.K1, a, cache)
	case KNot:
		v = ^refEvalRec(e.K0, a, cache)
	case KNeg:
		v = -refEvalRec(e.K0, a, cache)
	case KShl:
		s := refEvalRec(e.K1, a, cache)
		if s >= uint64(e.Width) {
			v = 0
		} else {
			v = refEvalRec(e.K0, a, cache) << s
		}
	case KLShr:
		s := refEvalRec(e.K1, a, cache)
		if s >= uint64(e.Width) {
			v = 0
		} else {
			v = refEvalRec(e.K0, a, cache) >> s
		}
	case KAShr:
		s := refEvalRec(e.K1, a, cache)
		if s >= uint64(e.Width) {
			s = uint64(e.Width) - 1
		}
		v = uint64(sext64(refEvalRec(e.K0, a, cache), e.K0.Width) >> s)
	case KEq:
		v = b2u(refEvalRec(e.K0, a, cache) == refEvalRec(e.K1, a, cache))
	case KUlt:
		v = b2u(refEvalRec(e.K0, a, cache) < refEvalRec(e.K1, a, cache))
	case KUle:
		v = b2u(refEvalRec(e.K0, a, cache) <= refEvalRec(e.K1, a, cache))
	case KSlt:
		v = b2u(sext64(refEvalRec(e.K0, a, cache), e.K0.Width) < sext64(refEvalRec(e.K1, a, cache), e.K1.Width))
	case KSle:
		v = b2u(sext64(refEvalRec(e.K0, a, cache), e.K0.Width) <= sext64(refEvalRec(e.K1, a, cache), e.K1.Width))
	case KConcat:
		v = refEvalRec(e.K0, a, cache)<<e.K1.Width | refEvalRec(e.K1, a, cache)
	case KExtract:
		v = refEvalRec(e.K0, a, cache) >> (e.Val & 0xff)
	case KZExt:
		v = refEvalRec(e.K0, a, cache)
	case KSExt:
		v = uint64(sext64(refEvalRec(e.K0, a, cache), e.K0.Width))
	case KIte:
		if refEvalRec(e.K0, a, cache) == 1 {
			v = refEvalRec(e.K1, a, cache)
		} else {
			v = refEvalRec(e.K2, a, cache)
		}
	default:
		panic(fmt.Sprintf("smt: eval of %v", e.Kind))
	}
	v &= mask(e.Width)
	cache[e] = v
	return v
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

// TestIDMemoMatchesMapMemo is the oracle for the id-indexed memo: random
// DAGs from two Builders, whose node ids collide (the second creates its
// variables in another order and interns unrelated nodes first), are
// evaluated by evaluators that alternate on one memo, across a forced
// epoch wraparound, and every value must equal the map-memo reference.
func TestIDMemoMatchesMapMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type side struct {
		b     *Builder
		conds []*Expr
		roots []*Expr
	}
	mk := func(names []string, junk int) side {
		b := NewBuilder()
		for i := 0; i < junk; i++ {
			b.Const(16, uint64(i))
		}
		vars := make([]*Expr, len(names))
		for i, n := range names {
			vars[i] = b.Var(32, n)
		}
		s := side{b: b, conds: randomCondSet(rng, b, vars, 24)}
		for i := 0; i < 24; i++ {
			s.roots = append(s.roots, randomExpr(rng, b, vars, 5))
		}
		return s
	}
	sides := []side{mk([]string{"a", "b", "c"}, 0), mk([]string{"c", "a", "b"}, 7)}
	for _, s := range sides {
		seen := make([]bool, len(s.b.intern))
		for _, e := range s.b.intern {
			if e.ID() >= len(seen) || seen[e.ID()] {
				t.Fatalf("node ids are not 0..%d: %d", len(seen)-1, e.ID())
			}
			seen[e.ID()] = true
		}
	}

	m := &memo{}
	check := func(round int, s side, env Assignment) {
		t.Helper()
		m.begin()
		ev := &Evaluator{a: env, m: m}
		for _, list := range [][]*Expr{s.conds, s.roots} {
			for i, e := range list {
				if got, want := ev.Eval(e), freshEval(e, env); got != want {
					t.Fatalf("round %d (epoch %d), expr %d: id memo %#x, map memo %#x", round, m.epoch, i, got, want)
				}
			}
		}
	}
	envs := make([]Assignment, 8)
	for i := range envs {
		envs[i] = randomEnv(rng, 3)
	}
	for round := 0; round < 40; round++ {
		check(round, sides[round%2], envs[round%len(envs)])
	}

	// Wraparound, on a fresh memo: values stamped at epoch 1 must not
	// come back to life when the epoch counter wraps around to 1.
	m = &memo{}
	check(0, sides[0], envs[0])
	m.epoch = ^uint32(0) - 1
	check(1, sides[1], envs[1])
	if m.epoch != ^uint32(0) {
		t.Fatalf("epoch %d, want the last one", m.epoch)
	}
	check(2, sides[0], envs[2])
	if m.epoch != 1 {
		t.Fatalf("epoch %d after wraparound, want 1", m.epoch)
	}

	// The same through the pool: Eval and NewEvaluator/Release hand one
	// memo back and forth between the two Builders.
	for round := 0; round < 40; round++ {
		s, env := sides[round%2], envs[(round*3)%len(envs)]
		ev := NewEvaluator(env)
		for i, e := range s.roots {
			want := freshEval(e, env)
			if got := ev.Eval(e); got != want {
				t.Fatalf("pooled round %d, expr %d: evaluator %#x, want %#x", round, i, got, want)
			}
			if got := Eval(sides[1-round%2].roots[i], env); got != freshEval(sides[1-round%2].roots[i], env) {
				t.Fatalf("pooled round %d, expr %d: Eval on the other builder disagrees", round, i)
			}
		}
		ev.Release()
	}
}
