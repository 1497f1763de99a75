// Package smt implements a quantifier-free bitvector (QF_BV) constraint
// solver: a hash-consed expression DAG with aggressive constant folding, a
// Tseitin bit-blaster and a CDCL SAT solver. It plays the role that
// KLEE+STP play in the paper — the symbolic backend of the concolic
// testing engine.
package smt

import (
	"fmt"
	"strings"
	"sync"
)

// Kind identifies the operator of an expression node.
type Kind uint8

// Expression kinds. All expressions are bitvectors; boolean values are
// bitvectors of width 1 (as in STP's internal representation).
const (
	KConst Kind = iota // literal constant; value in Val
	KVar               // free variable; variable id in Val

	// Arithmetic, width(w,w)->w
	KAdd
	KSub
	KMul
	KUDiv // unsigned division; unconstrained result when divisor is 0
	KURem // unsigned remainder; unconstrained result when divisor is 0

	// Bitwise, width(w,w)->w / (w)->w
	KAnd
	KOr
	KXor
	KNot
	KNeg

	// Shifts, width(w,w)->w. Shift amounts >= w yield 0 (or sign-fill
	// for KAShr), matching SMT-LIB semantics.
	KShl
	KLShr
	KAShr

	// Comparisons, width(w,w)->1
	KEq
	KUlt
	KUle
	KSlt
	KSle

	// Structure
	KConcat  // (w1,w2)->w1+w2; kid0 is the high part
	KExtract // Val = hi<<8|lo; (w)->hi-lo+1
	KZExt    // Val = target width
	KSExt    // Val = target width
	KIte     // (1,w,w)->w
)

var kindNames = [...]string{
	KConst: "const", KVar: "var",
	KAdd: "bvadd", KSub: "bvsub", KMul: "bvmul", KUDiv: "bvudiv", KURem: "bvurem",
	KAnd: "bvand", KOr: "bvor", KXor: "bvxor", KNot: "bvnot", KNeg: "bvneg",
	KShl: "bvshl", KLShr: "bvlshr", KAShr: "bvashr",
	KEq: "=", KUlt: "bvult", KUle: "bvule", KSlt: "bvslt", KSle: "bvsle",
	KConcat: "concat", KExtract: "extract", KZExt: "zext", KSExt: "sext",
	KIte: "ite",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Expr is an immutable, hash-consed bitvector expression node. Exprs are
// created through a Builder and must never be mutated; pointer equality
// implies structural equality within one Builder.
type Expr struct {
	Kind  Kind
	Width uint8  // bit width of the result, 1..64
	id    uint32 // dense intern index within the Builder (see ID)
	Val   uint64 // constant value, variable id, extract bounds, or ext width
	K0    *Expr
	K1    *Expr
	K2    *Expr
}

// exprKey is the interning key. Two nodes with equal keys are the same node.
type exprKey struct {
	kind       Kind
	width      uint8
	val        uint64
	k0, k1, k2 *Expr
}

// Builder creates and interns expressions. A single mutex guards the
// intern table and the variable registry, so one Builder may be shared by
// concurrent exploration workers (each running its own core and solver);
// the expressions themselves are immutable and need no synchronization.
type Builder struct {
	mu       sync.Mutex
	intern   map[exprKey]*Expr
	varNames []string       // variable id -> name
	varWidth []uint8        // variable id -> width
	varIDs   map[string]int // name -> variable id
}

// NewBuilder returns an empty expression builder.
func NewBuilder() *Builder {
	return &Builder{intern: make(map[exprKey]*Expr), varIDs: make(map[string]int)}
}

// NumVars reports how many distinct variables have been created.
func (b *Builder) NumVars() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.varNames)
}

// VarName returns the name of variable id.
func (b *Builder) VarName(id int) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.varNames[id]
}

// LookupName returns the name of variable id, or ok=false when the
// builder has no such variable.
func (b *Builder) LookupName(id int) (name string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if id < 0 || id >= len(b.varNames) {
		return "", false
	}
	return b.varNames[id], true
}

// VarID returns the id of the named variable, if it exists.
func (b *Builder) VarID(name string) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id, ok := b.varIDs[name]
	return id, ok
}

// VarWidth returns the width of variable id.
func (b *Builder) VarWidth(id int) uint8 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.varWidth[id]
}

func (b *Builder) mk(kind Kind, width uint8, val uint64, k0, k1, k2 *Expr) *Expr {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.mkLocked(kind, width, val, k0, k1, k2)
}

// mkLocked interns a node; the caller must hold b.mu.
func (b *Builder) mkLocked(kind Kind, width uint8, val uint64, k0, k1, k2 *Expr) *Expr {
	key := exprKey{kind, width, val, k0, k1, k2}
	if e, ok := b.intern[key]; ok {
		return e
	}
	e := &Expr{Kind: kind, Width: width, id: uint32(len(b.intern)), Val: val, K0: k0, K1: k1, K2: k2}
	b.intern[key] = e
	return e
}

// ID returns the node's dense index within its Builder: the nodes of one
// Builder are numbered 0, 1, 2, ... in interning order. It keys per-node
// memos as slice indices. Ids of nodes from different Builders collide,
// so one memo must only ever hold nodes of one Builder at a time.
func (e *Expr) ID() int { return int(e.id) }

// mask returns the w-bit mask.
func mask(w uint8) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// signBit reports whether the sign bit of a w-bit value v is set.
func signBit(v uint64, w uint8) bool { return v>>(w-1)&1 == 1 }

// sext sign-extends a w-bit value to 64 bits.
func sext64(v uint64, w uint8) int64 {
	if w >= 64 {
		return int64(v)
	}
	if signBit(v, w) {
		return int64(v | ^mask(w))
	}
	return int64(v)
}

// Const returns the constant expression of the given width. The value is
// truncated to the width.
func (b *Builder) Const(width uint8, val uint64) *Expr {
	if width == 0 || width > 64 {
		panic(fmt.Sprintf("smt: bad const width %d", width))
	}
	return b.mk(KConst, width, val&mask(width), nil, nil, nil)
}

// Bool returns the width-1 constant for v.
func (b *Builder) Bool(v bool) *Expr {
	if v {
		return b.Const(1, 1)
	}
	return b.Const(1, 0)
}

// True reports whether e is the width-1 constant 1.
func (e *Expr) IsTrue() bool { return e.Kind == KConst && e.Width == 1 && e.Val == 1 }

// IsFalse reports whether e is the width-1 constant 0.
func (e *Expr) IsFalse() bool { return e.Kind == KConst && e.Width == 1 && e.Val == 0 }

// IsConst reports whether e is a constant.
func (e *Expr) IsConst() bool { return e.Kind == KConst }

// Var creates (or reuses, by name) a fresh free variable. Creating a
// variable with a name already in use returns the existing variable; the
// widths must then agree. Var panics where DeclareVar returns an error.
func (b *Builder) Var(width uint8, name string) *Expr {
	e, err := b.DeclareVar(width, name)
	if err != nil {
		panic(err.Error())
	}
	return e
}

// DeclareVar is Var for names and widths that come from outside the
// process (wire or file input): a width outside 1..64, or one that
// contradicts the existing variable of that name, is an error.
func (b *Builder) DeclareVar(width uint8, name string) (*Expr, error) {
	if width == 0 || width > 64 {
		return nil, fmt.Errorf("smt: bad var width %d", width)
	}
	// The lock spans the lookup and the registration so concurrent
	// workers minting the same name agree on one variable id.
	b.mu.Lock()
	defer b.mu.Unlock()
	if id, ok := b.varIDs[name]; ok {
		if b.varWidth[id] != width {
			return nil, fmt.Errorf("smt: variable %q redeclared with width %d (was %d)", name, width, b.varWidth[id])
		}
		return b.mkLocked(KVar, width, uint64(id), nil, nil, nil), nil
	}
	id := len(b.varNames)
	b.varNames = append(b.varNames, name)
	b.varWidth = append(b.varWidth, width)
	b.varIDs[name] = id
	return b.mkLocked(KVar, width, uint64(id), nil, nil, nil), nil
}

func ckWidth(op string, a, b *Expr) {
	if a.Width != b.Width {
		panic(fmt.Sprintf("smt: %s width mismatch %d vs %d", op, a.Width, b.Width))
	}
}

// binFold applies constant folding for a binary op; returns nil if not folded.
func (b *Builder) binFold(kind Kind, x, y *Expr) *Expr {
	if x.Kind != KConst || y.Kind != KConst {
		return nil
	}
	w := x.Width
	m := mask(w)
	a, c := x.Val, y.Val
	var r uint64
	switch kind {
	case KAdd:
		r = (a + c) & m
	case KSub:
		r = (a - c) & m
	case KMul:
		r = (a * c) & m
	case KUDiv:
		if c == 0 {
			r = m // SMT-LIB: bvudiv by zero yields all-ones
		} else {
			r = (a / c) & m
		}
	case KURem:
		if c == 0 {
			r = a
		} else {
			r = (a % c) & m
		}
	case KAnd:
		r = a & c
	case KOr:
		r = a | c
	case KXor:
		r = a ^ c
	case KShl:
		if c >= uint64(w) {
			r = 0
		} else {
			r = (a << c) & m
		}
	case KLShr:
		if c >= uint64(w) {
			r = 0
		} else {
			r = a >> c
		}
	case KAShr:
		if c >= uint64(w) {
			c = uint64(w) - 1
		}
		r = uint64(sext64(a, w)>>c) & m
	case KEq:
		return b.Bool(a == c)
	case KUlt:
		return b.Bool(a < c)
	case KUle:
		return b.Bool(a <= c)
	case KSlt:
		return b.Bool(sext64(a, w) < sext64(c, w))
	case KSle:
		return b.Bool(sext64(a, w) <= sext64(c, w))
	default:
		return nil
	}
	return b.Const(w, r)
}

// Add returns x + y.
func (b *Builder) Add(x, y *Expr) *Expr {
	ckWidth("add", x, y)
	if e := b.binFold(KAdd, x, y); e != nil {
		return e
	}
	// Canonicalize: constant on the right.
	if x.Kind == KConst {
		x, y = y, x
	}
	if y.Kind == KConst && y.Val == 0 {
		return x
	}
	// (x + c1) + c2 -> x + (c1+c2)
	if x.Kind == KAdd && x.K1.Kind == KConst && y.Kind == KConst {
		return b.Add(x.K0, b.Const(x.Width, x.K1.Val+y.Val))
	}
	return b.mk(KAdd, x.Width, 0, x, y, nil)
}

// Sub returns x - y.
func (b *Builder) Sub(x, y *Expr) *Expr {
	ckWidth("sub", x, y)
	if e := b.binFold(KSub, x, y); e != nil {
		return e
	}
	if y.Kind == KConst && y.Val == 0 {
		return x
	}
	if x == y {
		return b.Const(x.Width, 0)
	}
	// x - c -> x + (-c): reuse Add's folding chain.
	if y.Kind == KConst {
		return b.Add(x, b.Const(x.Width, -y.Val))
	}
	return b.mk(KSub, x.Width, 0, x, y, nil)
}

// Mul returns x * y.
func (b *Builder) Mul(x, y *Expr) *Expr {
	ckWidth("mul", x, y)
	if e := b.binFold(KMul, x, y); e != nil {
		return e
	}
	if x.Kind == KConst {
		x, y = y, x
	}
	if y.Kind == KConst {
		switch y.Val {
		case 0:
			return y
		case 1:
			return x
		}
	}
	return b.mk(KMul, x.Width, 0, x, y, nil)
}

// UDiv returns x / y (unsigned). Division by zero yields all-ones
// (SMT-LIB semantics); RISC-V div-by-zero handling is layered on top
// by the ISS with an Ite.
func (b *Builder) UDiv(x, y *Expr) *Expr {
	ckWidth("udiv", x, y)
	if e := b.binFold(KUDiv, x, y); e != nil {
		return e
	}
	if y.Kind == KConst && y.Val == 1 {
		return x
	}
	return b.mk(KUDiv, x.Width, 0, x, y, nil)
}

// URem returns x % y (unsigned). x % 0 == x (SMT-LIB semantics).
func (b *Builder) URem(x, y *Expr) *Expr {
	ckWidth("urem", x, y)
	if e := b.binFold(KURem, x, y); e != nil {
		return e
	}
	if y.Kind == KConst && y.Val == 1 {
		return b.Const(x.Width, 0)
	}
	return b.mk(KURem, x.Width, 0, x, y, nil)
}

// And returns x & y.
func (b *Builder) And(x, y *Expr) *Expr {
	ckWidth("and", x, y)
	if e := b.binFold(KAnd, x, y); e != nil {
		return e
	}
	if x.Kind == KConst {
		x, y = y, x
	}
	if y.Kind == KConst {
		if y.Val == 0 {
			return y
		}
		if y.Val == mask(x.Width) {
			return x
		}
	}
	if x == y {
		return x
	}
	return b.mk(KAnd, x.Width, 0, x, y, nil)
}

// Or returns x | y.
func (b *Builder) Or(x, y *Expr) *Expr {
	ckWidth("or", x, y)
	if e := b.binFold(KOr, x, y); e != nil {
		return e
	}
	if x.Kind == KConst {
		x, y = y, x
	}
	if y.Kind == KConst {
		if y.Val == 0 {
			return x
		}
		if y.Val == mask(x.Width) {
			return y
		}
	}
	if x == y {
		return x
	}
	return b.mk(KOr, x.Width, 0, x, y, nil)
}

// Xor returns x ^ y.
func (b *Builder) Xor(x, y *Expr) *Expr {
	ckWidth("xor", x, y)
	if e := b.binFold(KXor, x, y); e != nil {
		return e
	}
	if x.Kind == KConst {
		x, y = y, x
	}
	if y.Kind == KConst && y.Val == 0 {
		return x
	}
	if x == y {
		return b.Const(x.Width, 0)
	}
	return b.mk(KXor, x.Width, 0, x, y, nil)
}

// Not returns ^x (bitwise complement; logical negation for width 1).
func (b *Builder) Not(x *Expr) *Expr {
	if x.Kind == KConst {
		return b.Const(x.Width, ^x.Val)
	}
	if x.Kind == KNot {
		return x.K0
	}
	return b.mk(KNot, x.Width, 0, x, nil, nil)
}

// Neg returns -x (two's complement).
func (b *Builder) Neg(x *Expr) *Expr {
	if x.Kind == KConst {
		return b.Const(x.Width, -x.Val)
	}
	if x.Kind == KNeg {
		return x.K0
	}
	return b.mk(KNeg, x.Width, 0, x, nil, nil)
}

// Shl returns x << y (zero fill, amounts >= width give 0).
func (b *Builder) Shl(x, y *Expr) *Expr {
	ckWidth("shl", x, y)
	if e := b.binFold(KShl, x, y); e != nil {
		return e
	}
	if y.Kind == KConst && y.Val == 0 {
		return x
	}
	return b.mk(KShl, x.Width, 0, x, y, nil)
}

// LShr returns x >> y (logical).
func (b *Builder) LShr(x, y *Expr) *Expr {
	ckWidth("lshr", x, y)
	if e := b.binFold(KLShr, x, y); e != nil {
		return e
	}
	if y.Kind == KConst && y.Val == 0 {
		return x
	}
	return b.mk(KLShr, x.Width, 0, x, y, nil)
}

// AShr returns x >> y (arithmetic).
func (b *Builder) AShr(x, y *Expr) *Expr {
	ckWidth("ashr", x, y)
	if e := b.binFold(KAShr, x, y); e != nil {
		return e
	}
	if y.Kind == KConst && y.Val == 0 {
		return x
	}
	return b.mk(KAShr, x.Width, 0, x, y, nil)
}

// Eq returns the width-1 expression x == y.
func (b *Builder) Eq(x, y *Expr) *Expr {
	ckWidth("eq", x, y)
	if e := b.binFold(KEq, x, y); e != nil {
		return e
	}
	if x == y {
		return b.Bool(true)
	}
	// Order operands deterministically so eq(x,y) and eq(y,x) intern alike:
	// put constants on the right.
	if x.Kind == KConst {
		x, y = y, x
	}
	// Width-1 equality against a constant is identity or negation.
	if x.Width == 1 && y.Kind == KConst {
		if y.Val == 1 {
			return x
		}
		return b.Not(x)
	}
	return b.mk(KEq, 1, 0, x, y, nil)
}

// Ne returns x != y.
func (b *Builder) Ne(x, y *Expr) *Expr { return b.Not(b.Eq(x, y)) }

// Ult returns the width-1 expression x < y (unsigned).
func (b *Builder) Ult(x, y *Expr) *Expr {
	ckWidth("ult", x, y)
	if e := b.binFold(KUlt, x, y); e != nil {
		return e
	}
	if x == y {
		return b.Bool(false)
	}
	if y.Kind == KConst && y.Val == 0 {
		return b.Bool(false) // nothing is < 0 unsigned
	}
	if x.Kind == KConst && x.Val == mask(y.Width) {
		return b.Bool(false) // all-ones is not < anything
	}
	return b.mk(KUlt, 1, 0, x, y, nil)
}

// Ule returns x <= y (unsigned).
func (b *Builder) Ule(x, y *Expr) *Expr {
	ckWidth("ule", x, y)
	if e := b.binFold(KUle, x, y); e != nil {
		return e
	}
	if x == y {
		return b.Bool(true)
	}
	if x.Kind == KConst && x.Val == 0 {
		return b.Bool(true)
	}
	if y.Kind == KConst && y.Val == mask(x.Width) {
		return b.Bool(true)
	}
	return b.mk(KUle, 1, 0, x, y, nil)
}

// Slt returns x < y (signed).
func (b *Builder) Slt(x, y *Expr) *Expr {
	ckWidth("slt", x, y)
	if e := b.binFold(KSlt, x, y); e != nil {
		return e
	}
	if x == y {
		return b.Bool(false)
	}
	return b.mk(KSlt, 1, 0, x, y, nil)
}

// Sle returns x <= y (signed).
func (b *Builder) Sle(x, y *Expr) *Expr {
	ckWidth("sle", x, y)
	if e := b.binFold(KSle, x, y); e != nil {
		return e
	}
	if x == y {
		return b.Bool(true)
	}
	return b.mk(KSle, 1, 0, x, y, nil)
}

// Ugt / Uge / Sge are the flipped comparison helpers.
func (b *Builder) Ugt(x, y *Expr) *Expr { return b.Ult(y, x) }
func (b *Builder) Uge(x, y *Expr) *Expr { return b.Ule(y, x) }
func (b *Builder) Sge(x, y *Expr) *Expr { return b.Sle(y, x) }

// Concat returns hi ++ lo (hi occupies the upper bits).
func (b *Builder) Concat(hi, lo *Expr) *Expr {
	w := int(hi.Width) + int(lo.Width)
	if w > 64 {
		panic(fmt.Sprintf("smt: concat width %d > 64", w))
	}
	if hi.Kind == KConst && lo.Kind == KConst {
		return b.Const(uint8(w), hi.Val<<lo.Width|lo.Val)
	}
	// concat(extract(e,hi1,lo1), extract(e,hi2,lo2)) with lo1 == hi2+1
	// -> extract(e, hi1, lo2): re-fuses byte-wise memory round trips.
	if hi.Kind == KExtract && lo.Kind == KExtract && hi.K0 == lo.K0 {
		h1, l1 := uint8(hi.Val>>8), uint8(hi.Val)
		h2, l2 := uint8(lo.Val>>8), uint8(lo.Val)
		if l1 == h2+1 {
			return b.Extract(hi.K0, h1, l2)
		}
	}
	return b.mk(KConcat, uint8(w), 0, hi, lo, nil)
}

// Extract returns bits hi..lo (inclusive) of x.
func (b *Builder) Extract(x *Expr, hi, lo uint8) *Expr {
	if hi < lo || hi >= x.Width {
		panic(fmt.Sprintf("smt: bad extract [%d:%d] of width %d", hi, lo, x.Width))
	}
	w := hi - lo + 1
	if w == x.Width {
		return x
	}
	if x.Kind == KConst {
		return b.Const(w, x.Val>>lo)
	}
	switch x.Kind {
	case KExtract:
		// extract(extract(e,h,l), hi,lo) -> extract(e, l+hi, l+lo)
		l := uint8(x.Val)
		return b.Extract(x.K0, l+hi, l+lo)
	case KConcat:
		loW := x.K1.Width
		if lo >= loW {
			return b.Extract(x.K0, hi-loW, lo-loW)
		}
		if hi < loW {
			return b.Extract(x.K1, hi, lo)
		}
	case KZExt:
		if hi < x.K0.Width {
			return b.Extract(x.K0, hi, lo)
		}
		if lo >= x.K0.Width {
			return b.Const(w, 0)
		}
		if lo == 0 && hi >= x.K0.Width {
			return b.ZExt(x.K0, w)
		}
	case KSExt:
		if hi < x.K0.Width {
			return b.Extract(x.K0, hi, lo)
		}
		if lo == 0 && hi >= x.K0.Width {
			return b.SExt(x.K0, w)
		}
	case KIte:
		// Push extracts through ite so byte loads of an ite-valued word
		// stay small.
		if x.K1.Kind == KConst || x.K2.Kind == KConst {
			return b.Ite(x.K0, b.Extract(x.K1, hi, lo), b.Extract(x.K2, hi, lo))
		}
	}
	return b.mk(KExtract, w, uint64(hi)<<8|uint64(lo), x, nil, nil)
}

// ZExt zero-extends x to width w.
func (b *Builder) ZExt(x *Expr, w uint8) *Expr {
	if w < x.Width {
		panic(fmt.Sprintf("smt: zext to narrower width %d < %d", w, x.Width))
	}
	if w == x.Width {
		return x
	}
	if x.Kind == KConst {
		return b.Const(w, x.Val)
	}
	if x.Kind == KZExt {
		return b.ZExt(x.K0, w)
	}
	return b.mk(KZExt, w, uint64(w), x, nil, nil)
}

// SExt sign-extends x to width w.
func (b *Builder) SExt(x *Expr, w uint8) *Expr {
	if w < x.Width {
		panic(fmt.Sprintf("smt: sext to narrower width %d < %d", w, x.Width))
	}
	if w == x.Width {
		return x
	}
	if x.Kind == KConst {
		return b.Const(w, uint64(sext64(x.Val, x.Width)))
	}
	if x.Kind == KSExt {
		return b.SExt(x.K0, w)
	}
	if x.Kind == KZExt && x.K0.Width < x.Width {
		// The top bit of a zext is 0, so further sign extension is zext.
		return b.ZExt(x.K0, w)
	}
	return b.mk(KSExt, w, uint64(w), x, nil, nil)
}

// Ite returns if c then t else f. c must have width 1, t and f equal widths.
func (b *Builder) Ite(c, t, f *Expr) *Expr {
	if c.Width != 1 {
		panic("smt: ite condition must have width 1")
	}
	ckWidth("ite", t, f)
	if c.IsTrue() {
		return t
	}
	if c.IsFalse() {
		return f
	}
	if t == f {
		return t
	}
	if c.Kind == KNot {
		return b.Ite(c.K0, f, t)
	}
	// Boolean-valued ite simplifications.
	if t.Width == 1 {
		if t.IsTrue() && f.IsFalse() {
			return c
		}
		if t.IsFalse() && f.IsTrue() {
			return b.Not(c)
		}
		if t.IsTrue() {
			return b.Or(c, f)
		}
		if f.IsFalse() {
			return b.And(c, t)
		}
		if t.IsFalse() {
			return b.And(b.Not(c), f)
		}
		if f.IsTrue() {
			return b.Or(b.Not(c), t)
		}
	}
	return b.mk(KIte, t.Width, 0, c, t, f)
}

// String renders the expression in an SMT-LIB-flavoured prefix syntax.
// Shared subtrees are rendered repeatedly; this is a debugging aid, not a
// serialization format.
func (e *Expr) String() string {
	var sb strings.Builder
	e.write(&sb, 0)
	return sb.String()
}

const maxPrintDepth = 12

func (e *Expr) write(sb *strings.Builder, depth int) {
	if depth > maxPrintDepth {
		sb.WriteString("...")
		return
	}
	switch e.Kind {
	case KConst:
		fmt.Fprintf(sb, "#x%0*x", (e.Width+3)/4, e.Val)
	case KVar:
		fmt.Fprintf(sb, "v%d", e.Val)
	case KExtract:
		fmt.Fprintf(sb, "(extract[%d:%d] ", e.Val>>8, e.Val&0xff)
		e.K0.write(sb, depth+1)
		sb.WriteString(")")
	case KZExt, KSExt:
		fmt.Fprintf(sb, "(%s[%d] ", e.Kind, e.Width)
		e.K0.write(sb, depth+1)
		sb.WriteString(")")
	default:
		sb.WriteString("(")
		sb.WriteString(e.Kind.String())
		for _, k := range []*Expr{e.K0, e.K1, e.K2} {
			if k == nil {
				break
			}
			sb.WriteString(" ")
			k.write(sb, depth+1)
		}
		sb.WriteString(")")
	}
}

// Vars appends the distinct variable ids appearing in e to dst and
// returns it. seen must be non-nil and is shared across calls to
// deduplicate over multiple expressions.
func (e *Expr) Vars(dst []int, seen map[*Expr]bool) []int {
	if seen[e] {
		return dst
	}
	seen[e] = true
	if e.Kind == KVar {
		return append(dst, int(e.Val))
	}
	for _, k := range []*Expr{e.K0, e.K1, e.K2} {
		if k == nil {
			break
		}
		dst = k.Vars(dst, seen)
	}
	return dst
}

// Size returns the number of distinct nodes in the DAG rooted at e.
func (e *Expr) Size() int {
	seen := map[*Expr]bool{}
	var walk func(*Expr)
	walk = func(x *Expr) {
		if x == nil || seen[x] {
			return
		}
		seen[x] = true
		walk(x.K0)
		walk(x.K1)
		walk(x.K2)
	}
	walk(e)
	return len(seen)
}
