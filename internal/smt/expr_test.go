package smt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	b := NewBuilder()
	c := func(v uint64) *Expr { return b.Const(32, v) }
	cases := []struct {
		name string
		got  *Expr
		want uint64
	}{
		{"add", b.Add(c(3), c(4)), 7},
		{"add-wrap", b.Add(c(0xffffffff), c(1)), 0},
		{"sub", b.Sub(c(3), c(4)), 0xffffffff},
		{"mul", b.Mul(c(7), c(6)), 42},
		{"mul-wrap", b.Mul(c(0x80000000), c(2)), 0},
		{"udiv", b.UDiv(c(42), c(5)), 8},
		{"udiv0", b.UDiv(c(42), c(0)), 0xffffffff},
		{"urem", b.URem(c(42), c(5)), 2},
		{"urem0", b.URem(c(42), c(0)), 42},
		{"and", b.And(c(0xf0f0), c(0xff00)), 0xf000},
		{"or", b.Or(c(0xf0f0), c(0x0f0f)), 0xffff},
		{"xor", b.Xor(c(0xff), c(0x0f)), 0xf0},
		{"not", b.Not(c(0)), 0xffffffff},
		{"neg", b.Neg(c(1)), 0xffffffff},
		{"shl", b.Shl(c(1), c(31)), 0x80000000},
		{"shl-over", b.Shl(c(1), c(32)), 0},
		{"lshr", b.LShr(c(0x80000000), c(31)), 1},
		{"ashr", b.AShr(c(0x80000000), c(31)), 0xffffffff},
		{"ashr-over", b.AShr(c(0x80000000), c(99)), 0xffffffff},
	}
	for _, tc := range cases {
		if tc.got.Kind != KConst {
			t.Errorf("%s: not folded: %v", tc.name, tc.got)
			continue
		}
		if tc.got.Val != tc.want {
			t.Errorf("%s: got %#x want %#x", tc.name, tc.got.Val, tc.want)
		}
	}
}

func TestComparisonFolding(t *testing.T) {
	b := NewBuilder()
	c := func(v uint64) *Expr { return b.Const(32, v) }
	if !b.Ult(c(1), c(2)).IsTrue() {
		t.Error("1 < 2 unsigned")
	}
	if !b.Slt(c(0xffffffff), c(0)).IsTrue() {
		t.Error("-1 < 0 signed")
	}
	if b.Slt(c(0), c(0xffffffff)).IsTrue() {
		t.Error("0 < -1 signed must be false")
	}
	if !b.Sle(c(0x80000000), c(0x7fffffff)).IsTrue() {
		t.Error("INT_MIN <= INT_MAX")
	}
	if !b.Eq(c(5), c(5)).IsTrue() {
		t.Error("5 == 5")
	}
	if !b.Ne(c(5), c(6)).IsTrue() {
		t.Error("5 != 6")
	}
}

func TestInterning(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	y := b.Var(32, "y")
	if b.Add(x, y) != b.Add(x, y) {
		t.Error("identical expressions must intern to the same node")
	}
	if b.Var(32, "x") != x {
		t.Error("same-named variable must be reused")
	}
	// Add canonicalizes constants to the right, so these intern together.
	if b.Add(b.Const(32, 5), x) != b.Add(x, b.Const(32, 5)) {
		t.Error("add constant canonicalization")
	}
}

func TestIdentitySimplifications(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	zero := b.Const(32, 0)
	ones := b.Const(32, 0xffffffff)
	if b.Add(x, zero) != x {
		t.Error("x+0 = x")
	}
	if b.Sub(x, x).Val != 0 || !b.Sub(x, x).IsConst() {
		t.Error("x-x = 0")
	}
	if b.Mul(x, b.Const(32, 1)) != x {
		t.Error("x*1 = x")
	}
	if !b.Mul(x, zero).IsConst() {
		t.Error("x*0 = 0")
	}
	if b.And(x, ones) != x {
		t.Error("x&~0 = x")
	}
	if b.Or(x, zero) != x {
		t.Error("x|0 = x")
	}
	if b.Xor(x, x).Val != 0 || !b.Xor(x, x).IsConst() {
		t.Error("x^x = 0")
	}
	if b.Not(b.Not(x)) != x {
		t.Error("~~x = x")
	}
	if b.Neg(b.Neg(x)) != x {
		t.Error("--x = x")
	}
	if !b.Eq(x, x).IsTrue() {
		t.Error("x==x = true")
	}
	if !b.Ule(zero, x).IsTrue() {
		t.Error("0<=x = true")
	}
	if !b.Ult(x, zero).IsFalse() {
		t.Error("x<0 = false")
	}
}

func TestAddConstantChainFolds(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	e := b.Add(b.Add(x, b.Const(32, 3)), b.Const(32, 4))
	want := b.Add(x, b.Const(32, 7))
	if e != want {
		t.Errorf("(x+3)+4 should fold to x+7, got %v", e)
	}
	e2 := b.Sub(b.Add(x, b.Const(32, 3)), b.Const(32, 3))
	if e2 != x {
		t.Errorf("(x+3)-3 should fold to x, got %v", e2)
	}
}

func TestExtractConcat(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	// Byte round trip: storing a word byte-wise then loading should give
	// back the original expression (the memory system depends on this to
	// keep expressions small).
	b0 := b.Extract(x, 7, 0)
	b1 := b.Extract(x, 15, 8)
	b2 := b.Extract(x, 23, 16)
	b3 := b.Extract(x, 31, 24)
	whole := b.Concat(b.Concat(b.Concat(b3, b2), b1), b0)
	if whole != x {
		t.Errorf("byte-wise round trip should re-fuse to x, got %v", whole)
	}
	// Extract of constant.
	c := b.Extract(b.Const(32, 0xdeadbeef), 15, 8)
	if !c.IsConst() || c.Val != 0xbe || c.Width != 8 {
		t.Errorf("extract const: got %v", c)
	}
	// Nested extract.
	e := b.Extract(b.Extract(x, 23, 8), 7, 0)
	want := b.Extract(x, 15, 8)
	if e != want {
		t.Errorf("nested extract: got %v want %v", e, want)
	}
	// Extract of zext regions.
	z := b.ZExt(b.Var(8, "y"), 32)
	hi := b.Extract(z, 31, 8)
	if !hi.IsConst() || hi.Val != 0 {
		t.Errorf("extract of zext padding must be 0, got %v", hi)
	}
}

func TestIteSimplifications(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	y := b.Var(32, "y")
	c := b.Ult(x, y)
	if b.Ite(b.Bool(true), x, y) != x {
		t.Error("ite(true,x,y) = x")
	}
	if b.Ite(b.Bool(false), x, y) != y {
		t.Error("ite(false,x,y) = y")
	}
	if b.Ite(c, x, x) != x {
		t.Error("ite(c,x,x) = x")
	}
	if b.Ite(c, b.Bool(true), b.Bool(false)) != c {
		t.Error("ite(c,1,0) = c")
	}
	if b.Ite(c, b.Bool(false), b.Bool(true)) != b.Not(c) {
		t.Error("ite(c,0,1) = !c")
	}
	if b.Ite(b.Not(c), x, y) != b.Ite(c, y, x) {
		t.Error("ite(!c,x,y) = ite(c,y,x)")
	}
}

func TestVarsCollection(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	y := b.Var(32, "y")
	e := b.Add(b.Mul(x, y), x)
	vars := e.Vars(nil, map[*Expr]bool{})
	if len(vars) != 2 {
		t.Errorf("expected 2 vars, got %v", vars)
	}
}

func TestWidthPanics(t *testing.T) {
	b := NewBuilder()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("mixed add", func() { b.Add(b.Const(8, 1), b.Const(32, 1)) })
	mustPanic("const width 0", func() { b.Const(0, 1) })
	mustPanic("const width 65", func() { b.Const(65, 1) })
	mustPanic("extract oob", func() { b.Extract(b.Var(8, "q"), 8, 0) })
	mustPanic("zext narrow", func() { b.ZExt(b.Const(32, 1), 8) })
	mustPanic("ite wide cond", func() { b.Ite(b.Const(32, 1), b.Const(8, 0), b.Const(8, 0)) })
	mustPanic("var redeclared", func() { b.Var(32, "q2"); b.Var(8, "q2") })
}

// TestEvalMatchesFold: for random constant operands, building the
// expression (which folds) and evaluating the unfolded form must agree.
func TestEvalMatchesFold(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	y := b.Var(32, "y")
	ops := []func(a, c *Expr) *Expr{
		b.Add, b.Sub, b.Mul, b.UDiv, b.URem, b.And, b.Or, b.Xor,
		b.Shl, b.LShr, b.AShr, b.Eq, b.Ult, b.Ule, b.Slt, b.Sle,
	}
	f := func(av, cv uint32, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		folded := op(b.Const(32, uint64(av)), b.Const(32, uint64(cv)))
		symbolic := op(x, y)
		env := Assignment{0: uint64(av), 1: uint64(cv)}
		return Eval(symbolic, env) == folded.Val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestEvalRandomDags: random expression DAGs evaluate deterministically
// and within width bounds.
func TestEvalRandomDags(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder()
	vars := []*Expr{b.Var(32, "a"), b.Var(32, "b"), b.Var(32, "c")}
	for iter := 0; iter < 200; iter++ {
		e := randomExpr(rng, b, vars, 4)
		env := Assignment{0: uint64(rng.Uint32()), 1: uint64(rng.Uint32()), 2: uint64(rng.Uint32())}
		v := Eval(e, env)
		if v&^mask(e.Width) != 0 {
			t.Fatalf("eval out of width: %#x width %d", v, e.Width)
		}
		if Eval(e, env) != v {
			t.Fatal("eval not deterministic")
		}
	}
}

// randomExpr builds a random 32-bit expression of bounded depth.
func randomExpr(rng *rand.Rand, b *Builder, vars []*Expr, depth int) *Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return vars[rng.Intn(len(vars))]
		}
		return b.Const(32, uint64(rng.Uint32()))
	}
	l := randomExpr(rng, b, vars, depth-1)
	r := randomExpr(rng, b, vars, depth-1)
	switch rng.Intn(12) {
	case 0:
		return b.Add(l, r)
	case 1:
		return b.Sub(l, r)
	case 2:
		return b.Mul(l, r)
	case 3:
		return b.And(l, r)
	case 4:
		return b.Or(l, r)
	case 5:
		return b.Xor(l, r)
	case 6:
		return b.Shl(l, b.Const(32, uint64(rng.Intn(40))))
	case 7:
		return b.LShr(l, b.Const(32, uint64(rng.Intn(40))))
	case 8:
		return b.AShr(l, b.Const(32, uint64(rng.Intn(40))))
	case 9:
		return b.Ite(b.Ult(l, r), l, r)
	case 10:
		return b.ZExt(b.Extract(l, 7, 0), 32)
	default:
		return b.SExt(b.Extract(l, 15, 0), 32)
	}
}

func TestStringRendering(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	e := b.Add(x, b.Const(32, 5))
	if got := e.String(); got != "(bvadd v0 #x00000005)" {
		t.Errorf("String: %q", got)
	}
	if b.Bool(true).String() != "#x1" {
		t.Errorf("bool true: %q", b.Bool(true).String())
	}
}

func TestSizeCounting(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	e := b.Add(b.Mul(x, x), b.Mul(x, x)) // shared subtree
	// nodes: x, mul(x,x), add = 3 (mul interned once)
	if e.Size() != 3 {
		t.Errorf("Size: got %d want 3", e.Size())
	}
}

// TestVarNameIndexManyVars: with thousands of variables, name lookup,
// redeclaration (same width reuses the node, another width panics and
// leaves the registry alone) and unknown names all behave through the
// name index.
func TestVarNameIndexManyVars(t *testing.T) {
	const n = 4000
	b := NewBuilder()
	widths := []uint8{1, 8, 16, 32, 64}
	vars := make([]*Expr, n)
	for i := range vars {
		vars[i] = b.Var(widths[i%len(widths)], fmt.Sprintf("in[%d]", i))
	}
	if b.NumVars() != n {
		t.Fatalf("NumVars %d want %d", b.NumVars(), n)
	}
	model := Assignment{}
	for i, v := range vars {
		name := fmt.Sprintf("in[%d]", i)
		if id, ok := b.VarID(name); !ok || id != i || int(v.Val) != i {
			t.Fatalf("VarID(%q) = %d,%v; want %d", name, id, ok, i)
		}
		if got, ok := b.LookupName(i); !ok || got != name || b.VarName(i) != name {
			t.Fatalf("name of %d: %q,%v", i, got, ok)
		}
		if b.Var(v.Width, name) != v {
			t.Fatalf("redeclaring %q with its width must return the same node", name)
		}
		model[i] = ^uint64(0)
	}
	if b.Value(model, "in[3999]") != mask(widths[3999%len(widths)]) {
		t.Errorf("Value(in[3999]) = %#x", b.Value(model, "in[3999]"))
	}

	func() {
		defer func() {
			want := `smt: variable "in[2]" redeclared with width 8 (was 16)`
			if r := recover(); r != want {
				t.Errorf("redeclaration panic %v, want %q", r, want)
			}
		}()
		b.Var(8, "in[2]")
	}()
	if b.NumVars() != n || b.VarWidth(2) != 16 {
		t.Errorf("failed redeclaration changed the registry: %d vars, width %d", b.NumVars(), b.VarWidth(2))
	}

	for _, name := range []string{"in[4000]", "in", "", "IN[0]"} {
		if id, ok := b.VarID(name); ok {
			t.Errorf("VarID(%q) = %d for an unknown name", name, id)
		}
		if b.Value(model, name) != 0 {
			t.Errorf("Value(%q) of an unknown name must be 0", name)
		}
	}
	for _, id := range []int{-1, n, n + 10} {
		if _, ok := b.LookupName(id); ok {
			t.Errorf("LookupName(%d) found a variable", id)
		}
	}
	if v := b.Var(8, "late"); int(v.Val) != n {
		t.Errorf("new variable after %d got id %d", n, v.Val)
	}
	if id, ok := b.VarID("late"); !ok || id != n {
		t.Errorf("VarID(late) = %d,%v", id, ok)
	}
}
