package smt

import (
	"fmt"
	"sync"
)

// Assignment maps variable ids to concrete values. Values are stored
// width-masked.
type Assignment map[int]uint64

// memo is an id-indexed sub-expression memo: val[id] holds the value of
// the node with that id (Expr.ID) for the current evaluation iff
// stamp[id] == epoch. Starting a new evaluation bumps the epoch, so
// forgetting every value is O(1), whatever the memo's size; the arrays
// grow on demand to the largest id seen and keep their storage.
type memo struct {
	val   []uint64
	stamp []uint32
	epoch uint32
}

// begin invalidates every memoized value. When the epoch counter wraps,
// the stamps are zeroed once so that no stale stamp can equal a reused
// epoch; epoch 0 is never current, which makes fresh slots invalid.
func (m *memo) begin() {
	m.epoch++
	if m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
}

// grow makes id addressable, keeping every memoized value.
func (m *memo) grow(id uint32) {
	n := max(int(id)+1, 2*len(m.stamp), 256)
	val := make([]uint64, n)
	copy(val, m.val)
	stamp := make([]uint32, n)
	copy(stamp, m.stamp)
	m.val, m.stamp = val, stamp
}

// memoPool recycles the memos of Eval and Evaluator. Model validation
// runs on every query-cache hit, so a fresh memo per call would make
// allocation the dominant cost of a hit; a pooled memo is
// allocation-free once it has grown to the builder's node count.
var memoPool = sync.Pool{New: func() any { return new(memo) }}

func getMemo() *memo {
	m := memoPool.Get().(*memo)
	m.begin()
	return m
}

func putMemo(m *memo) {
	if m != nil {
		memoPool.Put(m)
	}
}

// Eval computes the concrete value of e under the assignment. Unassigned
// variables evaluate to zero (the solver's don't-care completion). The
// result is masked to e.Width.
func Eval(e *Expr, a Assignment) uint64 {
	m := getMemo()
	v := evalRec(e, a, m)
	putMemo(m)
	return v
}

// Evaluator evaluates many expressions under one fixed assignment,
// sharing the sub-expression memo across calls. Shadow-state
// reconcretization (re-evaluating every symbolic byte of a forked VP
// under a new solver model) evaluates thousands of expressions that
// share structure, where the per-call memo of Eval would redo the
// shared work each time. The zero-default semantics are identical to
// Eval: unassigned variables evaluate to zero. The memo is keyed by
// node id, so every expression one Evaluator sees must come from the
// same Builder.
type Evaluator struct {
	a Assignment
	m *memo
}

// NewEvaluator creates an evaluator over a. The assignment must not be
// mutated while the evaluator is in use (cached values would go stale).
func NewEvaluator(a Assignment) *Evaluator {
	return &Evaluator{a: a, m: getMemo()}
}

// Eval computes the concrete value of e under the evaluator's
// assignment, masked to e.Width.
func (ev *Evaluator) Eval(e *Expr) uint64 {
	return evalRec(e, ev.a, ev.m)
}

// Release hands the evaluator's memo storage back for reuse by later
// evaluations. The evaluator must not be used afterwards. Calling it is
// optional: an unreleased memo is simply garbage collected.
func (ev *Evaluator) Release() {
	putMemo(ev.m)
	ev.m = nil
}

func evalRec(e *Expr, a Assignment, m *memo) uint64 {
	id := e.id
	if int(id) < len(m.stamp) && m.stamp[id] == m.epoch {
		return m.val[id]
	}
	var v uint64
	switch e.Kind {
	case KConst:
		v = e.Val
	case KVar:
		v = a[int(e.Val)] & mask(e.Width)
	case KAdd:
		v = evalRec(e.K0, a, m) + evalRec(e.K1, a, m)
	case KSub:
		v = evalRec(e.K0, a, m) - evalRec(e.K1, a, m)
	case KMul:
		v = evalRec(e.K0, a, m) * evalRec(e.K1, a, m)
	case KUDiv:
		d := evalRec(e.K1, a, m)
		if d == 0 {
			v = mask(e.Width)
		} else {
			v = evalRec(e.K0, a, m) / d
		}
	case KURem:
		d := evalRec(e.K1, a, m)
		if d == 0 {
			v = evalRec(e.K0, a, m)
		} else {
			v = evalRec(e.K0, a, m) % d
		}
	case KAnd:
		v = evalRec(e.K0, a, m) & evalRec(e.K1, a, m)
	case KOr:
		v = evalRec(e.K0, a, m) | evalRec(e.K1, a, m)
	case KXor:
		v = evalRec(e.K0, a, m) ^ evalRec(e.K1, a, m)
	case KNot:
		v = ^evalRec(e.K0, a, m)
	case KNeg:
		v = -evalRec(e.K0, a, m)
	case KShl:
		s := evalRec(e.K1, a, m)
		if s >= uint64(e.Width) {
			v = 0
		} else {
			v = evalRec(e.K0, a, m) << s
		}
	case KLShr:
		s := evalRec(e.K1, a, m)
		if s >= uint64(e.Width) {
			v = 0
		} else {
			v = evalRec(e.K0, a, m) >> s
		}
	case KAShr:
		s := evalRec(e.K1, a, m)
		if s >= uint64(e.Width) {
			s = uint64(e.Width) - 1
		}
		v = uint64(sext64(evalRec(e.K0, a, m), e.K0.Width) >> s)
	case KEq:
		v = b2u(evalRec(e.K0, a, m) == evalRec(e.K1, a, m))
	case KUlt:
		v = b2u(evalRec(e.K0, a, m) < evalRec(e.K1, a, m))
	case KUle:
		v = b2u(evalRec(e.K0, a, m) <= evalRec(e.K1, a, m))
	case KSlt:
		v = b2u(sext64(evalRec(e.K0, a, m), e.K0.Width) < sext64(evalRec(e.K1, a, m), e.K1.Width))
	case KSle:
		v = b2u(sext64(evalRec(e.K0, a, m), e.K0.Width) <= sext64(evalRec(e.K1, a, m), e.K1.Width))
	case KConcat:
		v = evalRec(e.K0, a, m)<<e.K1.Width | evalRec(e.K1, a, m)
	case KExtract:
		v = evalRec(e.K0, a, m) >> (e.Val & 0xff)
	case KZExt:
		v = evalRec(e.K0, a, m)
	case KSExt:
		v = uint64(sext64(evalRec(e.K0, a, m), e.K0.Width))
	case KIte:
		if evalRec(e.K0, a, m) == 1 {
			v = evalRec(e.K1, a, m)
		} else {
			v = evalRec(e.K2, a, m)
		}
	default:
		panic(fmt.Sprintf("smt: eval of %v", e.Kind))
	}
	v &= mask(e.Width)
	if int(id) >= len(m.stamp) {
		m.grow(id)
	}
	m.stamp[id] = m.epoch
	m.val[id] = v
	return v
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
