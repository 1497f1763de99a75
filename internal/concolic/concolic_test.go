package concolic

import (
	"sync"
	"testing"
	"testing/quick"

	"rvcte/internal/smt"
)

// evalV evaluates the symbolic part of v under env and checks it matches
// the concrete part when env assigns exactly the concrete inputs used.
func evalV(t *testing.T, v Value, env smt.Assignment) {
	t.Helper()
	if v.Sym == nil {
		return
	}
	if got := uint32(smt.Eval(v.Sym, env)); got != v.C {
		t.Fatalf("symbolic/concrete mismatch: sym=%d conc=%d (%v)", got, v.C, v.Sym)
	}
}

// TestOpsAgreement: for every binary op, the symbolic expression evaluated
// at the concrete operand values must equal the concrete result.
func TestOpsAgreement(t *testing.T) {
	b := smt.NewBuilder()
	o := Ops{B: b}
	x := b.Var(32, "x")
	y := b.Var(32, "y")

	type binOp struct {
		name string
		f    func(a, b Value) Value
	}
	ops := []binOp{
		{"add", o.Add}, {"sub", o.Sub}, {"and", o.And}, {"or", o.Or}, {"xor", o.Xor},
		{"sll", o.Sll}, {"srl", o.Srl}, {"sra", o.Sra}, {"slt", o.Slt}, {"sltu", o.Sltu},
		{"mul", o.Mul}, {"mulh", o.MulH}, {"mulhu", o.MulHU}, {"mulhsu", o.MulHSU},
		{"div", o.Div}, {"divu", o.DivU}, {"rem", o.Rem}, {"remu", o.RemU},
	}

	f := func(av, bv uint32, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		// Symbolic-symbolic
		sa := Value{C: av, Sym: x}
		sb := Value{C: bv, Sym: y}
		env := smt.Assignment{0: uint64(av), 1: uint64(bv)}
		r := op.f(sa, sb)
		if r.Sym != nil && uint32(smt.Eval(r.Sym, env)) != r.C {
			t.Logf("%s symbolic mismatch: a=%#x b=%#x conc=%#x", op.name, av, bv, r.C)
			return false
		}
		// Concrete-concrete must stay concrete and agree with mixed.
		rc := op.f(Concrete(av), Concrete(bv))
		if !rc.IsConcrete() {
			t.Logf("%s concrete op produced symbolic value", op.name)
			return false
		}
		if rc.C != r.C {
			t.Logf("%s concrete vs concolic mismatch: %#x vs %#x", op.name, rc.C, r.C)
			return false
		}
		// Mixed: only one side symbolic.
		rm := op.f(sa, Concrete(bv))
		if rm.C != rc.C {
			t.Logf("%s mixed mismatch", op.name)
			return false
		}
		if rm.Sym != nil && uint32(smt.Eval(rm.Sym, env)) != rm.C {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestRiscvDivisionEdgeCases(t *testing.T) {
	b := smt.NewBuilder()
	o := Ops{B: b}
	x := b.Var(32, "x")

	cases := []struct {
		a, b       uint32
		div, rem   uint32
		divu, remu uint32
	}{
		{10, 0, 0xffffffff, 10, 0xffffffff, 10},                // div by zero
		{0x80000000, 0xffffffff, 0x80000000, 0, 0, 0x80000000}, // INT_MIN / -1
		{7, 2, 3, 1, 3, 1},
		{0xfffffff9, 2, 0xfffffffd, 0xffffffff, 0x7ffffffc, 1}, // -7/2 = -3 rem -1
		{7, 0xfffffffe, 0xfffffffd, 1, 0, 7},                   // 7/-2 = -3 rem 1
	}
	for _, tc := range cases {
		a, c := Concrete(tc.a), Concrete(tc.b)
		if got := o.Div(a, c).C; got != tc.div {
			t.Errorf("div(%#x,%#x) = %#x want %#x", tc.a, tc.b, got, tc.div)
		}
		if got := o.Rem(a, c).C; got != tc.rem {
			t.Errorf("rem(%#x,%#x) = %#x want %#x", tc.a, tc.b, got, tc.rem)
		}
		if got := o.DivU(a, c).C; got != tc.divu {
			t.Errorf("divu(%#x,%#x) = %#x want %#x", tc.a, tc.b, got, tc.divu)
		}
		if got := o.RemU(a, c).C; got != tc.remu {
			t.Errorf("remu(%#x,%#x) = %#x want %#x", tc.a, tc.b, got, tc.remu)
		}
		// Symbolic versions agree at the same point.
		env := smt.Assignment{0: uint64(tc.a)}
		sa := Value{C: tc.a, Sym: x}
		evalV(t, o.Div(sa, c), env)
		evalV(t, o.Rem(sa, c), env)
		evalV(t, o.DivU(sa, c), env)
		evalV(t, o.RemU(sa, c), env)
	}
}

func TestComparisons(t *testing.T) {
	b := smt.NewBuilder()
	o := Ops{B: b}
	x := b.Var(32, "x")

	a := Value{C: 5, Sym: x}
	c := Concrete(7)
	conc, sym := o.CmpLtu(a, c)
	if !conc {
		t.Error("5 < 7")
	}
	if sym == nil {
		t.Fatal("expected symbolic condition")
	}
	if smt.Eval(sym, smt.Assignment{0: 5}) != 1 {
		t.Error("sym cond at x=5 must be true")
	}
	if smt.Eval(sym, smt.Assignment{0: 9}) != 0 {
		t.Error("sym cond at x=9 must be false")
	}
	// Concrete-concrete comparisons produce no expression.
	if _, e := o.CmpEq(Concrete(1), Concrete(1)); e != nil {
		t.Error("concrete cmp must not build expressions")
	}
	// All comparison senses.
	if conc, _ := o.CmpGe(Value{C: 0x80000000, Sym: x}, Concrete(0)); conc {
		t.Error("INT_MIN >= 0 signed must be false")
	}
	if conc, _ := o.CmpGeu(Value{C: 0x80000000, Sym: x}, Concrete(0)); !conc {
		t.Error("0x80000000 >= 0 unsigned must be true")
	}
	if conc, _ := o.CmpNe(a, c); !conc {
		t.Error("5 != 7")
	}
}

func TestExtensions(t *testing.T) {
	b := smt.NewBuilder()
	o := Ops{B: b}
	x := b.Var(32, "x")

	v := Value{C: 0x80, Sym: x}
	env := smt.Assignment{0: 0x80}
	sb := o.SextByte(v)
	if sb.C != 0xffffff80 {
		t.Errorf("sext byte: %#x", sb.C)
	}
	evalV(t, sb, env)
	zb := o.ZextByte(v)
	if zb.C != 0x80 {
		t.Errorf("zext byte: %#x", zb.C)
	}
	evalV(t, zb, env)

	v2 := Value{C: 0x8000, Sym: x}
	env2 := smt.Assignment{0: 0x8000}
	sh := o.SextHalf(v2)
	if sh.C != 0xffff8000 {
		t.Errorf("sext half: %#x", sh.C)
	}
	evalV(t, sh, env2)
	zh := o.ZextHalf(v2)
	if zh.C != 0x8000 {
		t.Errorf("zext half: %#x", zh.C)
	}
	evalV(t, zh, env2)
}

func TestMemoryConcreteRoundTrip(t *testing.T) {
	b := smt.NewBuilder()
	m := NewMemory(b)

	m.Store(0x1000, 4, Concrete(0xdeadbeef))
	v := m.Load(0x1000, 4)
	if !v.IsConcrete() || v.C != 0xdeadbeef {
		t.Fatalf("word round trip: %v", v)
	}
	if v := m.Load(0x1000, 1); v.C != 0xef {
		t.Errorf("byte 0: %#x", v.C)
	}
	if v := m.Load(0x1003, 1); v.C != 0xde {
		t.Errorf("byte 3: %#x", v.C)
	}
	if v := m.Load(0x1002, 2); v.C != 0xdead {
		t.Errorf("half at 2: %#x", v.C)
	}
	// Unwritten memory reads as zero.
	if v := m.Load(0x99999, 4); !v.IsConcrete() || v.C != 0 {
		t.Errorf("unwritten: %v", v)
	}
	// Cross-page store/load.
	m.Store(0x1fff, 4, Concrete(0x11223344))
	if v := m.Load(0x1fff, 4); v.C != 0x11223344 {
		t.Errorf("cross page: %#x", v.C)
	}
}

func TestMemorySymbolicRoundTrip(t *testing.T) {
	b := smt.NewBuilder()
	m := NewMemory(b)
	x := b.Var(32, "x")

	m.Store(0x2000, 4, Value{C: 0x01020304, Sym: x})
	v := m.Load(0x2000, 4)
	if v.Sym != x {
		t.Fatalf("word round trip should re-fuse to x, got %v", v.Sym)
	}
	if v.C != 0x01020304 {
		t.Errorf("concrete part: %#x", v.C)
	}
	// Partial load keeps the right extract.
	lo := m.Load(0x2000, 2)
	if lo.C != 0x0304 {
		t.Errorf("half concrete: %#x", lo.C)
	}
	if lo.Sym == nil || uint32(smt.Eval(lo.Sym, smt.Assignment{0: 0x01020304})) != 0x0304 {
		t.Errorf("half symbolic eval mismatch: %v", lo.Sym)
	}
	// Overwriting with concrete data clears the symbolic bytes.
	m.Store(0x2000, 4, Concrete(7))
	if v := m.Load(0x2000, 4); !v.IsConcrete() || v.C != 7 {
		t.Errorf("concrete overwrite: %v", v)
	}
}

func TestMemoryMixedSymbolicBytes(t *testing.T) {
	b := smt.NewBuilder()
	m := NewMemory(b)
	y := b.Var(8, "y")

	m.Store(0x3000, 4, Concrete(0xaabbccdd))
	m.StoreByte(0x3001, 0x11, y)
	v := m.Load(0x3000, 4)
	if v.IsConcrete() {
		t.Fatal("expected symbolic word")
	}
	if v.C != 0xaabb11dd {
		t.Errorf("concrete part: %#x", v.C)
	}
	got := uint32(smt.Eval(v.Sym, smt.Assignment{0: 0x42}))
	if got != 0xaabb42dd {
		t.Errorf("eval with y=0x42: %#x", got)
	}
}

func TestMemoryClone(t *testing.T) {
	b := smt.NewBuilder()
	m := NewMemory(b)
	x := b.Var(32, "x")
	m.Store(0x1000, 4, Concrete(111))
	m.Store(0x2000, 4, Value{C: 222, Sym: x})

	c := m.Clone()
	// Writes to the clone must not affect the original, and vice versa.
	c.Store(0x1000, 4, Concrete(999))
	if v := m.Load(0x1000, 4); v.C != 111 {
		t.Errorf("original polluted by clone write: %d", v.C)
	}
	m.Store(0x2000, 4, Concrete(333))
	if v := c.Load(0x2000, 4); v.C != 222 || v.Sym == nil {
		t.Errorf("clone polluted by original write: %v", v)
	}
	// Clone of a clone.
	c2 := c.Clone()
	c2.Store(0x1000, 4, Concrete(555))
	if v := c.Load(0x1000, 4); v.C != 999 {
		t.Errorf("first clone polluted: %d", v.C)
	}
}

func TestMakeSymbolic(t *testing.T) {
	b := smt.NewBuilder()
	m := NewMemory(b)
	exprs := m.MakeSymbolic(0x4000, []byte{1, 2, 3, 4}, "d")
	if len(exprs) != 4 {
		t.Fatal("expected 4 byte exprs")
	}
	v := m.Load(0x4000, 4)
	if v.IsConcrete() || v.C != 0x04030201 {
		t.Fatalf("make symbolic: %v", v)
	}
	if b.VarName(0) != "d[0]" || b.VarName(3) != "d[3]" {
		t.Errorf("variable naming: %s %s", b.VarName(0), b.VarName(3))
	}
}

func TestReadHelpers(t *testing.T) {
	b := smt.NewBuilder()
	m := NewMemory(b)
	m.WriteBytes(0x100, []byte("hello\x00world"))
	if s, ok := m.ReadCString(0x100); !ok || s != "hello" {
		t.Errorf("cstring: %q ok=%v", s, ok)
	}
	if got := string(m.ReadBytes(0x106, 5)); got != "world" {
		t.Errorf("readbytes: %q", got)
	}
}

// TestFreezeCloneConcurrent: after Freeze, Clone must not mutate the
// snapshot's pages, so many goroutines may clone (and write to their
// clones) at once. Run under -race to catch regressions of the old
// clone-time shared-flag flip.
func TestFreezeCloneConcurrent(t *testing.T) {
	b := smt.NewBuilder()
	m := NewMemory(b)
	const span = 3 * pageSize
	for i := 0; i < span; i++ {
		m.StoreByte(uint32(i), byte(i), nil)
	}
	m.MakeSymbolic(100, make([]byte, 8), "frz")
	m.Freeze()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := m.Clone()
			// Writes land on copy-on-write page copies private to the clone.
			for i := 0; i < 512; i++ {
				c.StoreByte(uint32(i*7%span), byte(g), nil)
			}
			if got, _ := c.LoadByteRaw(0); got != byte(g) {
				t.Errorf("clone %d: own write lost, got %d", g, got)
			}
		}(g)
	}
	wg.Wait()

	// The frozen snapshot is untouched.
	for i := 0; i < span; i += 97 {
		if got, _ := m.LoadByteRaw(uint32(i)); got != byte(i) {
			t.Fatalf("snapshot byte %d corrupted: got %d want %d", i, got, byte(i))
		}
	}
	if _, sym := m.LoadByteRaw(100); sym == nil {
		t.Fatal("snapshot symbolic byte lost")
	}
}

// TestCheckpointCloneConcurrent: a fork checkpoint is an unfrozen clone
// of a running memory whose read and write TLBs are warm, and several
// workers may clone one checkpoint at the same time while the running
// memory keeps writing. Cloning the checkpoint must write nothing to it
// (a data race under -race), and every side must keep its own bytes.
func TestCheckpointCloneConcurrent(t *testing.T) {
	b := smt.NewBuilder()
	m := NewMemory(b)
	const span = 3 * pageSize
	for i := 0; i < span; i += 4 {
		m.Store(uint32(i), 4, Concrete(uint32(i)))
	}
	m.MakeSymbolic(100, make([]byte, 8), "cp")
	m.Load(8, 4) // warm read TLB
	cp := m.Clone()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := cp.Clone()
			for i := 0; i < span; i += 64 {
				c.Store(uint32(i), 4, Concrete(uint32(g)))
			}
			for i := 0; i < span; i += 64 {
				if v := c.Load(uint32(i), 4); v.C != uint32(g) {
					t.Errorf("clone %d: own write at %#x lost, got %#x", g, i, v.C)
					return
				}
			}
		}(g)
	}
	for i := 0; i < span; i += 64 {
		m.Store(uint32(i), 4, Concrete(0xffffffff))
	}
	wg.Wait()

	for i := 0; i < span; i += 64 {
		if v := cp.Load(uint32(i), 4); v.C != uint32(i) {
			t.Fatalf("checkpoint word %#x changed to %#x", i, v.C)
		}
		if v := m.Load(uint32(i), 4); v.C != 0xffffffff {
			t.Fatalf("running memory word %#x = %#x, want its own write", i, v.C)
		}
	}
}

// TestUnfrozenCloneStillCopiesOnWrite guards the single-threaded
// contract: cloning an unfrozen memory and writing on either side must
// not leak into the other.
func TestUnfrozenCloneStillCopiesOnWrite(t *testing.T) {
	b := smt.NewBuilder()
	m := NewMemory(b)
	m.StoreByte(42, 1, nil)
	c := m.Clone()
	m.StoreByte(42, 2, nil)
	c.StoreByte(42, 3, nil)
	if got, _ := m.LoadByteRaw(42); got != 2 {
		t.Errorf("original sees %d want 2", got)
	}
	if got, _ := c.LoadByteRaw(42); got != 3 {
		t.Errorf("clone sees %d want 3", got)
	}
}
