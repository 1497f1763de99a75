// Package nestedvm models the paper's "S2E" baseline: running the VP
// (with its ISS) inside a generic symbolic execution engine. Instead of
// the specialized concolic ISS executing RISC-V instructions natively,
// every instruction is re-translated on each step into a sequence of
// generic micro-operations and evaluated by a boxed, dynamically
// dispatched interpreter over a heap-allocated operand stack — the same
// structural overheads (an additional interpretation layer, generic
// state representation, no translation caching) that make the
// VP-inside-S2E configuration one to two orders of magnitude slower than
// the specialized engine (paper §3.1.2, §4.1). The contrast is
// deliberate: the native engine caches decoded basic blocks across
// executions (see internal/iss bbcache.go), while this baseline
// re-translates every instruction on every step by design — a core with
// an ExecHook decodes one instruction per step into a one-record block
// and never uses the block cache, so the baseline never silently
// benefits from it.
//
// The CTE semantics (path condition tracking, peripherals, protected
// zones, system instructions) are inherited unchanged from internal/iss
// through its ExecHook interface, so results are bit-identical to the
// native engine — only the execution mechanism differs. Because its
// micro-op semantics for the ALU, branch, jump and memory instructions
// are its own, it is also an independent reference for the ISS's
// handlers.
package nestedvm

import (
	"rvcte/internal/concolic"
	"rvcte/internal/iss"
	"rvcte/internal/rv32"
	"rvcte/internal/smt"
)

// uopKind enumerates the generic micro-operations.
type uopKind uint8

const (
	uGetReg uopKind = iota // push reg[a]
	uGetImm                // push imm
	uALU                   // pop b, pop a, push fn(a,b); fn name in s
	uSetReg                // pop -> reg[a]
	uSetPC                 // pop -> pc (also masks bit 0)
	uPCRel                 // push pc + imm
	uBranch                // pop b, pop a: conditional branch by name s, target pc+imm
	uLoad                  // pop addr, load a-bytes (signed if b != 0) into reg c
	uStore                 // pop value, pop addr, store a bytes
	uExt                   // pop, push extension by name s
)

// uop is one generic micro-operation. Operands are kept generic: the
// interpreter re-examines them dynamically on every execution.
type uop struct {
	kind uopKind
	a    int
	b    int
	c    int
	imm  uint32
	s    string
}

// box is a deliberately generic boxed operand (how a generic engine's
// expression objects wrap every value).
type box struct {
	v concolic.Value
}

// aluTable maps operator names to generic binary functions; dynamic
// dispatch through this table replaces the native switch.
var aluTable = map[string]func(o concolic.Ops, a, b concolic.Value) concolic.Value{
	"add":    func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.Add(a, b) },
	"sub":    func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.Sub(a, b) },
	"and":    func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.And(a, b) },
	"or":     func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.Or(a, b) },
	"xor":    func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.Xor(a, b) },
	"sll":    func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.Sll(a, b) },
	"srl":    func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.Srl(a, b) },
	"sra":    func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.Sra(a, b) },
	"slt":    func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.Slt(a, b) },
	"sltu":   func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.Sltu(a, b) },
	"mul":    func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.Mul(a, b) },
	"mulh":   func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.MulH(a, b) },
	"mulhsu": func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.MulHSU(a, b) },
	"mulhu":  func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.MulHU(a, b) },
	"div":    func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.Div(a, b) },
	"divu":   func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.DivU(a, b) },
	"rem":    func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.Rem(a, b) },
	"remu":   func(o concolic.Ops, a, b concolic.Value) concolic.Value { return o.RemU(a, b) },
}

var extTable = map[string]func(o concolic.Ops, v concolic.Value) concolic.Value{
	"sextb": func(o concolic.Ops, v concolic.Value) concolic.Value { return o.SextByte(v) },
	"sexth": func(o concolic.Ops, v concolic.Value) concolic.Value { return o.SextHalf(v) },
	"zextb": func(o concolic.Ops, v concolic.Value) concolic.Value { return o.ZextByte(v) },
	"zexth": func(o concolic.Ops, v concolic.Value) concolic.Value { return o.ZextHalf(v) },
}

// Attach installs the nested interpreter on a core. All subsequent
// execution goes through the generic layer.
func Attach(c *iss.Core) {
	c.ExecHook = hook
}

// hook translates and interprets one instruction. System instructions
// (ecall, csr, wfi, mret, fence) return false and run natively — in the
// real S2E setup those correspond to the plugin interface boundary.
func hook(c *iss.Core, in rv32.Inst) bool {
	// The hosted ISS performs its own fetch+decode cycle under the
	// generic engine; model it by re-decoding the raw encoding here.
	in = rv32.Decode(in.Raw)
	prog := translate(in)
	if prog == nil {
		return false
	}
	// S2E-style mode check: scan the micro-ops for symbolic operands to
	// decide between the concrete fast path and the symbolic
	// interpreter (both end up in the same generic layer here, but the
	// scan itself is part of every executed instruction).
	symbolic := false
	for _, u := range prog {
		if u.kind == uGetReg {
			if r := c.Reg(uint8(u.a)); !r.IsConcrete() {
				symbolic = true
			}
		}
	}
	_ = symbolic
	interp(c, in, prog)
	return true
}

// translate lowers one RISC-V instruction to micro-ops. Run on every
// step: the generic engine re-decodes continuously (no translation
// cache), exactly the overhead §3.1.2 describes.
func translate(in rv32.Inst) []uop {
	switch in.Op {
	case rv32.OpLUI:
		return []uop{{kind: uGetImm, imm: uint32(in.Imm)}, {kind: uSetReg, a: int(in.Rd)}}
	case rv32.OpAUIPC:
		return []uop{{kind: uPCRel, imm: uint32(in.Imm)}, {kind: uSetReg, a: int(in.Rd)}}
	case rv32.OpJAL:
		return []uop{
			{kind: uPCRel, imm: uint32(in.Size)},
			{kind: uSetReg, a: int(in.Rd)},
			{kind: uPCRel, imm: uint32(in.Imm)},
			{kind: uSetPC},
		}
	case rv32.OpJALR:
		return []uop{
			{kind: uGetReg, a: int(in.Rs1)},
			{kind: uGetImm, imm: uint32(in.Imm)},
			{kind: uALU, s: "add"},
			{kind: uPCRel, imm: uint32(in.Size)},
			{kind: uSetReg, a: int(in.Rd)},
			{kind: uSetPC},
		}
	case rv32.OpBEQ, rv32.OpBNE, rv32.OpBLT, rv32.OpBGE, rv32.OpBLTU, rv32.OpBGEU:
		return []uop{
			{kind: uGetReg, a: int(in.Rs1)},
			{kind: uGetReg, a: int(in.Rs2)},
			{kind: uBranch, s: in.Op.String(), imm: uint32(in.Imm)},
		}
	case rv32.OpLB, rv32.OpLH, rv32.OpLW, rv32.OpLBU, rv32.OpLHU:
		size := map[rv32.Op]int{rv32.OpLB: 1, rv32.OpLBU: 1, rv32.OpLH: 2, rv32.OpLHU: 2, rv32.OpLW: 4}[in.Op]
		signed := 0
		if in.Op == rv32.OpLB || in.Op == rv32.OpLH {
			signed = 1
		}
		return []uop{
			{kind: uGetReg, a: int(in.Rs1)},
			{kind: uGetImm, imm: uint32(in.Imm)},
			{kind: uALU, s: "add"},
			{kind: uLoad, a: size, b: signed, c: int(in.Rd)},
		}
	case rv32.OpSB, rv32.OpSH, rv32.OpSW:
		size := map[rv32.Op]int{rv32.OpSB: 1, rv32.OpSH: 2, rv32.OpSW: 4}[in.Op]
		return []uop{
			{kind: uGetReg, a: int(in.Rs1)},
			{kind: uGetImm, imm: uint32(in.Imm)},
			{kind: uALU, s: "add"},
			{kind: uGetReg, a: int(in.Rs2)},
			{kind: uStore, a: size},
		}
	case rv32.OpADDI, rv32.OpSLTI, rv32.OpSLTIU, rv32.OpXORI, rv32.OpORI, rv32.OpANDI,
		rv32.OpSLLI, rv32.OpSRLI, rv32.OpSRAI:
		names := map[rv32.Op]string{
			rv32.OpADDI: "add", rv32.OpSLTI: "slt", rv32.OpSLTIU: "sltu",
			rv32.OpXORI: "xor", rv32.OpORI: "or", rv32.OpANDI: "and",
			rv32.OpSLLI: "sll", rv32.OpSRLI: "srl", rv32.OpSRAI: "sra",
		}
		return []uop{
			{kind: uGetReg, a: int(in.Rs1)},
			{kind: uGetImm, imm: uint32(in.Imm)},
			{kind: uALU, s: names[in.Op]},
			{kind: uSetReg, a: int(in.Rd)},
		}
	case rv32.OpADD, rv32.OpSUB, rv32.OpSLL, rv32.OpSLT, rv32.OpSLTU, rv32.OpXOR,
		rv32.OpSRL, rv32.OpSRA, rv32.OpOR, rv32.OpAND,
		rv32.OpMUL, rv32.OpMULH, rv32.OpMULHSU, rv32.OpMULHU,
		rv32.OpDIV, rv32.OpDIVU, rv32.OpREM, rv32.OpREMU:
		return []uop{
			{kind: uGetReg, a: int(in.Rs1)},
			{kind: uGetReg, a: int(in.Rs2)},
			{kind: uALU, s: in.Op.String()},
			{kind: uSetReg, a: int(in.Rd)},
		}
	}
	// System instructions fall back to the native path.
	return nil
}

// interp evaluates a micro-op program against the core state through a
// boxed operand stack and a generic (map-based) register state object —
// the way a generic engine views the hosted VP's CPU state.
func interp(c *iss.Core, in rv32.Inst, prog []uop) {
	// The operand stack and the state object are heap-allocated per
	// instruction (generic engines build expression/state objects
	// continuously and look everything up dynamically).
	stack := make([]any, 0, 4)
	state := make(map[int]any, 4)
	push := func(v concolic.Value) { stack = append(stack, &box{v: v}) }
	pop := func() concolic.Value {
		v := stack[len(stack)-1].(*box)
		stack = stack[:len(stack)-1]
		return v.v
	}
	getReg := func(r int) concolic.Value {
		if cached, ok := state[r]; ok {
			return cached.(*box).v
		}
		v := c.Reg(uint8(r))
		state[r] = &box{v: v}
		return v
	}
	setReg := func(r int, v concolic.Value) {
		state[r] = &box{v: v}
		c.SetReg(uint8(r), v)
	}
	next := c.PC + uint32(in.Size)
	branched := false

	for _, u := range prog {
		switch u.kind {
		case uGetReg:
			push(getReg(u.a))
		case uGetImm:
			push(concolic.Concrete(u.imm))
		case uPCRel:
			push(concolic.Concrete(c.PC + u.imm))
		case uALU:
			b := pop()
			a := pop()
			fn := aluTable[u.s]
			push(fn(c.Ops, a, b))
		case uSetReg:
			setReg(u.a, pop())
		case uSetPC:
			t := pop()
			addr := c.Concretize(t, "jump target")
			c.PC = addr &^ 1
			branched = true
		case uBranch:
			b := pop()
			a := pop()
			taken, cond := evalBranch(c, u.s, a, b)
			if cond != nil {
				c.Branch(taken, cond)
			}
			if taken {
				c.PC = c.PC + u.imm
			} else {
				c.PC = next
			}
			branched = true
		case uLoad:
			addr := c.Concretize(pop(), "memory address")
			if !c.HookLoad(addr, u.a, uint8(u.c), u.b != 0, next) {
				return // context switch to a peripheral
			}
			if c.Halted() {
				return
			}
		case uStore:
			v := pop()
			addr := c.Concretize(pop(), "memory address")
			if !c.HookStore(addr, u.a, v, next) {
				return
			}
			if c.Halted() {
				return
			}
		case uExt:
			push(extTable[u.s](c.Ops, pop()))
		}
		if c.Halted() {
			return
		}
	}
	if !branched {
		c.PC = next
	}
}

// evalBranch dispatches a comparison by name (generic condition objects).
func evalBranch(c *iss.Core, name string, a, b concolic.Value) (bool, *smt.Expr) {
	switch name {
	case "beq":
		return c.Ops.CmpEq(a, b)
	case "bne":
		return c.Ops.CmpNe(a, b)
	case "blt":
		return c.Ops.CmpLt(a, b)
	case "bge":
		return c.Ops.CmpGe(a, b)
	case "bltu":
		return c.Ops.CmpLtu(a, b)
	default: // bgeu
		return c.Ops.CmpGeu(a, b)
	}
}
