package smt

import (
	"fmt"
	"sync"
)

// Assignment maps variable ids to concrete values. Values are stored
// width-masked.
type Assignment map[int]uint64

// memoPool recycles the sub-expression memos of Eval and Evaluator.
// Model validation runs on every query-cache hit, so a fresh
// memo per call made map allocation and growth the dominant cost of a
// hit. A cleared map keeps its storage, so a reused memo is
// allocation-free once it has grown to the working-set size.
var memoPool = sync.Pool{New: func() any { return make(map[*Expr]uint64) }}

// maxPooledMemo caps the entries of a memo that goes back to the pool.
// Clearing a map costs time proportional to its capacity, so a memo
// that grew past the cap (one huge evaluation) is dropped instead of
// slowing down every later reuse.
const maxPooledMemo = 1 << 15

func getMemo() map[*Expr]uint64 { return memoPool.Get().(map[*Expr]uint64) }

func putMemo(memo map[*Expr]uint64) {
	if memo == nil || len(memo) > maxPooledMemo {
		return
	}
	clear(memo)
	memoPool.Put(memo)
}

// Eval computes the concrete value of e under the assignment. Unassigned
// variables evaluate to zero (the solver's don't-care completion). The
// result is masked to e.Width.
func Eval(e *Expr, a Assignment) uint64 {
	memo := getMemo()
	v := evalRec(e, a, memo)
	putMemo(memo)
	return v
}

// Evaluator evaluates many expressions under one fixed assignment,
// sharing the sub-expression memo across calls. Shadow-state
// reconcretization (re-evaluating every symbolic byte of a forked VP
// under a new solver model) evaluates thousands of expressions that
// share structure, where the per-call memo of Eval would redo the
// shared work each time. The zero-default semantics are identical to
// Eval: unassigned variables evaluate to zero.
type Evaluator struct {
	a     Assignment
	cache map[*Expr]uint64
}

// NewEvaluator creates an evaluator over a. The assignment must not be
// mutated while the evaluator is in use (cached values would go stale).
func NewEvaluator(a Assignment) *Evaluator {
	return &Evaluator{a: a, cache: getMemo()}
}

// Eval computes the concrete value of e under the evaluator's
// assignment, masked to e.Width.
func (ev *Evaluator) Eval(e *Expr) uint64 {
	return evalRec(e, ev.a, ev.cache)
}

// Release hands the evaluator's memo storage back for reuse by later
// evaluations. The evaluator must not be used afterwards. Calling it is
// optional: an unreleased memo is simply garbage collected.
func (ev *Evaluator) Release() {
	putMemo(ev.cache)
	ev.cache = nil
}

func evalRec(e *Expr, a Assignment, cache map[*Expr]uint64) uint64 {
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
		v = evalRec(e.K0, a, cache) + evalRec(e.K1, a, cache)
	case KSub:
		v = evalRec(e.K0, a, cache) - evalRec(e.K1, a, cache)
	case KMul:
		v = evalRec(e.K0, a, cache) * evalRec(e.K1, a, cache)
	case KUDiv:
		d := evalRec(e.K1, a, cache)
		if d == 0 {
			v = mask(e.Width)
		} else {
			v = evalRec(e.K0, a, cache) / d
		}
	case KURem:
		d := evalRec(e.K1, a, cache)
		if d == 0 {
			v = evalRec(e.K0, a, cache)
		} else {
			v = evalRec(e.K0, a, cache) % d
		}
	case KAnd:
		v = evalRec(e.K0, a, cache) & evalRec(e.K1, a, cache)
	case KOr:
		v = evalRec(e.K0, a, cache) | evalRec(e.K1, a, cache)
	case KXor:
		v = evalRec(e.K0, a, cache) ^ evalRec(e.K1, a, cache)
	case KNot:
		v = ^evalRec(e.K0, a, cache)
	case KNeg:
		v = -evalRec(e.K0, a, cache)
	case KShl:
		s := evalRec(e.K1, a, cache)
		if s >= uint64(e.Width) {
			v = 0
		} else {
			v = evalRec(e.K0, a, cache) << s
		}
	case KLShr:
		s := evalRec(e.K1, a, cache)
		if s >= uint64(e.Width) {
			v = 0
		} else {
			v = evalRec(e.K0, a, cache) >> s
		}
	case KAShr:
		s := evalRec(e.K1, a, cache)
		if s >= uint64(e.Width) {
			s = uint64(e.Width) - 1
		}
		v = uint64(sext64(evalRec(e.K0, a, cache), e.K0.Width) >> s)
	case KEq:
		v = b2u(evalRec(e.K0, a, cache) == evalRec(e.K1, a, cache))
	case KUlt:
		v = b2u(evalRec(e.K0, a, cache) < evalRec(e.K1, a, cache))
	case KUle:
		v = b2u(evalRec(e.K0, a, cache) <= evalRec(e.K1, a, cache))
	case KSlt:
		v = b2u(sext64(evalRec(e.K0, a, cache), e.K0.Width) < sext64(evalRec(e.K1, a, cache), e.K1.Width))
	case KSle:
		v = b2u(sext64(evalRec(e.K0, a, cache), e.K0.Width) <= sext64(evalRec(e.K1, a, cache), e.K1.Width))
	case KConcat:
		v = evalRec(e.K0, a, cache)<<e.K1.Width | evalRec(e.K1, a, cache)
	case KExtract:
		v = evalRec(e.K0, a, cache) >> (e.Val & 0xff)
	case KZExt:
		v = evalRec(e.K0, a, cache)
	case KSExt:
		v = uint64(sext64(evalRec(e.K0, a, cache), e.K0.Width))
	case KIte:
		if evalRec(e.K0, a, cache) == 1 {
			v = evalRec(e.K1, a, cache)
		} else {
			v = evalRec(e.K2, a, cache)
		}
	default:
		panic(fmt.Sprintf("smt: eval of %v", e.Kind))
	}
	v &= mask(e.Width)
	cache[e] = v
	return v
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
