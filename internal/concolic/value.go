// Package concolic provides the concolic data types used by the ISS: a
// value carries a concrete 32-bit part and an optional symbolic part
// (paper §2.2), and a sparse byte-granular memory propagates symbolic
// bytes alongside concrete storage.
package concolic

import (
	"fmt"

	"rvcte/internal/smt"
)

// Value is a concolic value (N, x): concrete part C is always available;
// symbolic part Sym may be nil, in which case the value is concrete.
type Value struct {
	C   uint32
	Sym *smt.Expr // nil means concrete; width 32 otherwise
}

// Concrete builds a concrete value.
func Concrete(c uint32) Value { return Value{C: c} }

// IsConcrete reports whether v has no symbolic part.
func (v Value) IsConcrete() bool { return v.Sym == nil }

func (v Value) String() string {
	if v.Sym == nil {
		return fmt.Sprintf("(%d, /)", v.C)
	}
	return fmt.Sprintf("(%d, %v)", v.C, v.Sym)
}

// Ops performs concolic arithmetic: each operation computes the concrete
// result natively and, when any operand is symbolic, builds the matching
// symbolic expression (converting concrete operands to SMT constants, as
// in the paper's (2, /) -> (2, 2_S) example).
type Ops struct {
	B *smt.Builder
}

// sym returns the symbolic part of v, materializing a constant when v is
// concrete.
func (o Ops) sym(v Value) *smt.Expr {
	if v.Sym != nil {
		return v.Sym
	}
	return o.B.Const(32, uint64(v.C))
}

func (o Ops) bin(a, b Value, cf func(x, y uint32) uint32, sf func(x, y *smt.Expr) *smt.Expr) Value {
	c := cf(a.C, b.C)
	if a.Sym == nil && b.Sym == nil {
		return Value{C: c}
	}
	s := sf(o.sym(a), o.sym(b))
	if s.IsConst() {
		// The symbolic computation collapsed to a constant (e.g. x^x):
		// drop the symbolic part entirely.
		return Value{C: uint32(s.Val)}
	}
	return Value{C: c, Sym: s}
}

func (o Ops) Add(a, b Value) Value {
	return o.bin(a, b, func(x, y uint32) uint32 { return x + y }, o.B.Add)
}

func (o Ops) Sub(a, b Value) Value {
	return o.bin(a, b, func(x, y uint32) uint32 { return x - y }, o.B.Sub)
}

func (o Ops) And(a, b Value) Value {
	return o.bin(a, b, func(x, y uint32) uint32 { return x & y }, o.B.And)
}

func (o Ops) Or(a, b Value) Value {
	return o.bin(a, b, func(x, y uint32) uint32 { return x | y }, o.B.Or)
}

func (o Ops) Xor(a, b Value) Value {
	return o.bin(a, b, func(x, y uint32) uint32 { return x ^ y }, o.B.Xor)
}

// Sll shifts left; RISC-V masks the shift amount to 5 bits.
func (o Ops) Sll(a, b Value) Value {
	return o.bin(a, b,
		func(x, y uint32) uint32 { return x << (y & 31) },
		func(x, y *smt.Expr) *smt.Expr { return o.B.Shl(x, o.B.And(y, o.B.Const(32, 31))) })
}

func (o Ops) Srl(a, b Value) Value {
	return o.bin(a, b,
		func(x, y uint32) uint32 { return x >> (y & 31) },
		func(x, y *smt.Expr) *smt.Expr { return o.B.LShr(x, o.B.And(y, o.B.Const(32, 31))) })
}

func (o Ops) Sra(a, b Value) Value {
	return o.bin(a, b,
		func(x, y uint32) uint32 { return uint32(int32(x) >> (y & 31)) },
		func(x, y *smt.Expr) *smt.Expr { return o.B.AShr(x, o.B.And(y, o.B.Const(32, 31))) })
}

// Slt is the signed set-less-than (result 0/1).
func (o Ops) Slt(a, b Value) Value {
	return o.bin(a, b,
		func(x, y uint32) uint32 {
			if int32(x) < int32(y) {
				return 1
			}
			return 0
		},
		func(x, y *smt.Expr) *smt.Expr { return o.B.ZExt(o.B.Slt(x, y), 32) })
}

// Sltu is the unsigned set-less-than (result 0/1).
func (o Ops) Sltu(a, b Value) Value {
	return o.bin(a, b,
		func(x, y uint32) uint32 {
			if x < y {
				return 1
			}
			return 0
		},
		func(x, y *smt.Expr) *smt.Expr { return o.B.ZExt(o.B.Ult(x, y), 32) })
}

func (o Ops) Mul(a, b Value) Value {
	return o.bin(a, b, func(x, y uint32) uint32 { return x * y }, o.B.Mul)
}

// MulH computes the high 32 bits of the signed 64-bit product.
func (o Ops) MulH(a, b Value) Value {
	return o.bin(a, b,
		func(x, y uint32) uint32 { return uint32(uint64(int64(int32(x))*int64(int32(y))) >> 32) },
		func(x, y *smt.Expr) *smt.Expr {
			p := o.B.Mul(o.B.SExt(x, 64), o.B.SExt(y, 64))
			return o.B.Extract(p, 63, 32)
		})
}

// MulHU computes the high 32 bits of the unsigned 64-bit product.
func (o Ops) MulHU(a, b Value) Value {
	return o.bin(a, b,
		func(x, y uint32) uint32 { return uint32(uint64(x) * uint64(y) >> 32) },
		func(x, y *smt.Expr) *smt.Expr {
			p := o.B.Mul(o.B.ZExt(x, 64), o.B.ZExt(y, 64))
			return o.B.Extract(p, 63, 32)
		})
}

// MulHSU computes the high 32 bits of signed(a) * unsigned(b).
func (o Ops) MulHSU(a, b Value) Value {
	return o.bin(a, b,
		func(x, y uint32) uint32 { return uint32(uint64(int64(int32(x))*int64(uint64(y))) >> 32) },
		func(x, y *smt.Expr) *smt.Expr {
			p := o.B.Mul(o.B.SExt(x, 64), o.B.ZExt(y, 64))
			return o.B.Extract(p, 63, 32)
		})
}

// DivU implements RISC-V unsigned division: x/0 == 0xffffffff.
func (o Ops) DivU(a, b Value) Value {
	return o.bin(a, b,
		func(x, y uint32) uint32 {
			if y == 0 {
				return 0xffffffff
			}
			return x / y
		},
		// SMT-LIB bvudiv already returns all-ones for zero divisors.
		o.B.UDiv)
}

// RemU implements RISC-V unsigned remainder: x%0 == x.
func (o Ops) RemU(a, b Value) Value {
	return o.bin(a, b,
		func(x, y uint32) uint32 {
			if y == 0 {
				return x
			}
			return x % y
		},
		o.B.URem)
}

// Div implements RISC-V signed division: x/0 == -1; INT_MIN / -1 == INT_MIN.
func (o Ops) Div(a, b Value) Value {
	return o.bin(a, b,
		func(x, y uint32) uint32 {
			if y == 0 {
				return 0xffffffff
			}
			if x == 0x80000000 && y == 0xffffffff {
				return 0x80000000
			}
			return uint32(int32(x) / int32(y))
		},
		func(x, y *smt.Expr) *smt.Expr { return o.signedDivRem(x, y, true) })
}

// Rem implements RISC-V signed remainder: x%0 == x; INT_MIN % -1 == 0.
func (o Ops) Rem(a, b Value) Value {
	return o.bin(a, b,
		func(x, y uint32) uint32 {
			if y == 0 {
				return x
			}
			if x == 0x80000000 && y == 0xffffffff {
				return 0
			}
			return uint32(int32(x) % int32(y))
		},
		func(x, y *smt.Expr) *smt.Expr { return o.signedDivRem(x, y, false) })
}

// signedDivRem expresses signed division over the unsigned SMT primitives
// using the usual absolute-value transformation. The SMT-LIB zero-divisor
// results of the unsigned primitives happen to compose into exactly the
// RISC-V-mandated values (div: -1, rem: dividend).
func (o Ops) signedDivRem(x, y *smt.Expr, wantDiv bool) *smt.Expr {
	b := o.B
	zero := b.Const(32, 0)
	xNeg := b.Slt(x, zero)
	yNeg := b.Slt(y, zero)
	ax := b.Ite(xNeg, b.Neg(x), x)
	ay := b.Ite(yNeg, b.Neg(y), y)
	if wantDiv {
		q := b.UDiv(ax, ay)
		qSigned := b.Ite(b.Xor(xNeg, yNeg), b.Neg(q), q)
		// Zero divisor: RISC-V requires -1.
		return b.Ite(b.Eq(y, zero), b.Const(32, 0xffffffff), qSigned)
	}
	r := b.URem(ax, ay)
	rSigned := b.Ite(xNeg, b.Neg(r), r)
	// Zero divisor: RISC-V requires the dividend.
	return b.Ite(b.Eq(y, zero), x, rSigned)
}

// CmpEq builds the width-1 condition a == b together with its concrete
// truth value.
func (o Ops) CmpEq(a, b Value) (bool, *smt.Expr) {
	conc := a.C == b.C
	if a.Sym == nil && b.Sym == nil {
		return conc, nil
	}
	return conc, o.B.Eq(o.sym(a), o.sym(b))
}

// CmpNe builds a != b.
func (o Ops) CmpNe(a, b Value) (bool, *smt.Expr) {
	c, e := o.CmpEq(a, b)
	if e == nil {
		return !c, nil
	}
	return !c, o.B.Not(e)
}

// CmpLt builds signed a < b.
func (o Ops) CmpLt(a, b Value) (bool, *smt.Expr) {
	conc := int32(a.C) < int32(b.C)
	if a.Sym == nil && b.Sym == nil {
		return conc, nil
	}
	return conc, o.B.Slt(o.sym(a), o.sym(b))
}

// CmpGe builds signed a >= b.
func (o Ops) CmpGe(a, b Value) (bool, *smt.Expr) {
	conc := int32(a.C) >= int32(b.C)
	if a.Sym == nil && b.Sym == nil {
		return conc, nil
	}
	return conc, o.B.Sge(o.sym(a), o.sym(b))
}

// CmpLtu builds unsigned a < b.
func (o Ops) CmpLtu(a, b Value) (bool, *smt.Expr) {
	conc := a.C < b.C
	if a.Sym == nil && b.Sym == nil {
		return conc, nil
	}
	return conc, o.B.Ult(o.sym(a), o.sym(b))
}

// CmpGeu builds unsigned a >= b.
func (o Ops) CmpGeu(a, b Value) (bool, *smt.Expr) {
	conc := a.C >= b.C
	if a.Sym == nil && b.Sym == nil {
		return conc, nil
	}
	return conc, o.B.Uge(o.sym(a), o.sym(b))
}

// SextByte sign-extends the low byte of v to 32 bits.
func (o Ops) SextByte(v Value) Value {
	c := uint32(int32(int8(v.C)))
	if v.Sym == nil {
		return Value{C: c}
	}
	return Value{C: c, Sym: o.B.SExt(o.B.Extract(v.Sym, 7, 0), 32)}
}

// SextHalf sign-extends the low half of v to 32 bits.
func (o Ops) SextHalf(v Value) Value {
	c := uint32(int32(int16(v.C)))
	if v.Sym == nil {
		return Value{C: c}
	}
	return Value{C: c, Sym: o.B.SExt(o.B.Extract(v.Sym, 15, 0), 32)}
}

// ZextByte zero-extends the low byte of v.
func (o Ops) ZextByte(v Value) Value {
	c := v.C & 0xff
	if v.Sym == nil {
		return Value{C: c}
	}
	return Value{C: c, Sym: o.B.ZExt(o.B.Extract(v.Sym, 7, 0), 32)}
}

// ZextHalf zero-extends the low half of v.
func (o Ops) ZextHalf(v Value) Value {
	c := v.C & 0xffff
	if v.Sym == nil {
		return Value{C: c}
	}
	return Value{C: c, Sym: o.B.ZExt(o.B.Extract(v.Sym, 15, 0), 32)}
}
