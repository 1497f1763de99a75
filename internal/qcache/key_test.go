package qcache

import (
	"fmt"
	"testing"

	"rvcte/internal/smt"
)

// pinnedExprs builds a fixed set of conditions covering every operator
// family: comparisons, arithmetic, bitwise, shifts, concat/extract,
// extensions and ite, over three named variables.
func pinnedExprs(b *smt.Builder) []*smt.Expr {
	a, bb, w := b.Var(8, "a"), b.Var(8, "b"), b.Var(32, "w")
	sum := b.Add(b.ZExt(a, 32), b.ZExt(bb, 32))
	return []*smt.Expr{
		b.Ult(a, b.Const(8, 10)),
		b.Eq(bb, b.Const(8, 3)),
		b.Ule(sum, w),
		b.Slt(b.Sub(w, b.Mul(sum, b.Const(32, 7))), b.Const(32, 0)),
		b.Ne(b.Xor(b.And(w, b.Const(32, 0xff00)), b.Or(sum, b.Const(32, 1))), b.Const(32, 0)),
		b.Eq(b.Extract(w, 15, 8), b.Not(a)),
		b.Sle(b.SExt(b.Neg(bb), 32), b.LShr(w, b.Const(32, 3))),
		b.Ult(b.Concat(a, bb), b.Extract(b.Shl(w, b.ZExt(a, 32)), 15, 0)),
		b.Eq(b.Ite(b.Ult(a, bb), b.AShr(w, b.Const(32, 2)), b.UDiv(w, b.Const(32, 5))), b.URem(sum, b.Const(32, 9))),
	}
}

// TestStructuralKeysPinned pins the element hashes and the set key of
// pinnedExprs. Persisted -cache-dir files are keyed by these values, so
// a change to hashing, to the node memo or to key folding that moves
// them would make every existing cache file miss. The same expressions
// built in a second Builder, whose variables and nodes are created in
// another order (so every node id differs), must hash identically.
func TestStructuralKeysPinned(t *testing.T) {
	// Recorded before the node memo moved from pointer-keyed maps to
	// id-indexed slices; they must never change.
	want := []uint64{
		0xb74276a76e97b171, 0xbd493c60078b102d, 0x79a79197b15cb23e,
		0xf31673f55112a00c, 0x5455aa60747bdecb, 0xba18ef3cd8fdfbc3,
		0xb5eec139a58b0efa, 0xfc32b6b0a6b94883, 0xbaff0ac8160a0b06,
	}
	const wantKey = uint64(0x31d5fdc2210e82c6)

	b1 := smt.NewBuilder()
	c1 := New(b1, Options{})
	e1 := pinnedExprs(b1)

	b2 := smt.NewBuilder()
	b2.Var(32, "w")
	b2.Var(8, "b")
	b2.Add(b2.Var(8, "unrelated"), b2.Const(8, 1))
	c2 := New(b2, Options{})
	e2 := pinnedExprs(b2)
	if e1[2].ID() == e2[2].ID() {
		t.Fatal("the second builder must number its nodes differently")
	}

	var got []string
	for i := range e1 {
		h1, h2 := c1.hashExpr(e1[i]), c2.hashExpr(e2[i])
		got = append(got, fmt.Sprintf("%#x", h1))
		if h1 != h2 {
			t.Errorf("expr %d: hash %#x in one builder, %#x in the other", i, h1, h2)
		}
		if h1 != want[i] {
			t.Errorf("expr %d: hash %#x, pinned %#x", i, h1, want[i])
		}
	}
	// The set key over the conditions in reverse, with one repeated:
	// canonicalization sorts and deduplicates.
	rev := append([]*smt.Expr{e2[0]}, e2...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	k1, k2 := setKey(c1.hashSet(e1)), setKey(c2.hashSet(rev))
	if k1 != k2 || k1 != wantKey {
		t.Errorf("set key %#x / %#x, pinned %#x", k1, k2, wantKey)
	}
	if t.Failed() {
		t.Logf("hashes: %v, key %#x", got, k1)
	}
}

// TestMarksReset: a reset table is empty, also right after the epoch
// counter wraps around to a value it held before.
func TestMarksReset(t *testing.T) {
	m := &marks{}
	m.reset()
	m.set(3, 7)
	m.set(200, 9)
	if v, ok := m.get(3); !ok || v != 7 {
		t.Fatalf("get(3) = %d, %v", v, ok)
	}
	if !m.add(5) || m.add(5) {
		t.Fatal("add must report only the first insertion")
	}
	m.epoch = ^uint32(0)
	m.reset() // wraps to epoch 1, the epoch the slots above were set in
	for _, i := range []int{3, 5, 200} {
		if _, ok := m.get(i); ok {
			t.Errorf("slot %d survived a reset", i)
		}
	}
}

// TestWireEntryValid: a wire entry is well-formed only with strictly
// increasing elements, and with a model when sat.
func TestWireEntryValid(t *testing.T) {
	for _, c := range []struct {
		w    WireEntry
		want bool
	}{
		{WireEntry{Elems: []uint64{1, 5, 9}}, true},
		{WireEntry{Elems: []uint64{1, 5, 9}, Sat: true, Model: map[string]uint64{}}, true},
		{WireEntry{Elems: []uint64{1, 5, 9}, Sat: true}, false},
		{WireEntry{Elems: []uint64{5, 1}}, false},
		{WireEntry{Elems: []uint64{1, 1, 2}}, false},
		{WireEntry{}, false},
	} {
		if got := c.w.Valid(); got != c.want {
			t.Errorf("%+v: Valid = %v, want %v", c.w, got, c.want)
		}
	}
}
