package bmc

import (
	"fmt"

	"rvcte/internal/concolic"
	"rvcte/internal/iss"
	"rvcte/internal/rv32"
	"rvcte/internal/smt"
)

// This file is the symbolic transition relation: one ISS step over a
// guarded symbolic state, mirroring internal/iss/exec.go semantics
// exactly (the confirmation replay in bmc.go holds it to that). The
// arithmetic reuses concolic.Ops with expression-wrapped values, so the
// RISC-V corner cases (shift masking, div-by-zero, INT_MIN/-1) are the
// same code the concolic engine runs.

// wrap lifts an expression into a concolic value for Ops; unwrap takes
// the result back, rebuilding the constant Ops.bin collapses to.
func wrap(e *smt.Expr) concolic.Value { return concolic.Value{C: uint32(e.Val), Sym: e} }

func (x *Executor) unwrap(v concolic.Value) *smt.Expr {
	if v.Sym != nil {
		return v.Sym
	}
	return x.b.Const(32, uint64(v.C))
}

func (s *state) reg(r uint8) *smt.Expr { return s.regs[r] }

func (s *state) setReg(r uint8, e *smt.Expr) {
	if r != 0 {
		s.regs[r] = e
	}
}

func one(s *state) []*state { return []*state{s} }

// prune retires a state whose guard was assumed away (CTE_assume false
// side): accounted, but neither a violation nor an exit.
func (x *Executor) prune(guard *smt.Expr) {
	if !guard.IsFalse() {
		x.accounted = append(x.accounted, guard)
	}
}

// step retires one instruction of s, recording violations, exits and
// drops on x, and returns the surviving successors (s is mutated and
// usually returned; branch splits clone it).
func (x *Executor) step(s *state) []*state {
	s.depth++
	in, ok := x.fetch(s)
	if !ok {
		return nil
	}
	o := x.ops
	cur := s.pc
	next := s.pc + uint32(in.Size)
	immE := x.b.Const(32, uint64(uint32(in.Imm)))
	bin := func(f func(a, b concolic.Value) concolic.Value, a, b *smt.Expr) *smt.Expr {
		return x.unwrap(f(wrap(a), wrap(b)))
	}

	switch in.Op {
	case rv32.OpLUI:
		s.setReg(in.Rd, immE)
	case rv32.OpAUIPC:
		s.setReg(in.Rd, x.b.Const(32, uint64(cur+uint32(in.Imm))))
	case rv32.OpJAL:
		s.setReg(in.Rd, x.b.Const(32, uint64(next)))
		s.pc = cur + uint32(in.Imm)
		return one(s)
	case rv32.OpJALR:
		target := bin(o.Add, s.reg(in.Rs1), immE)
		if !target.IsConst() {
			// The concolic engine concretizes symbolic jump targets to
			// its one concrete value; a state set has no such value, and
			// enumerating targets is future work.
			x.drop(s, "symbolic jump target")
			return nil
		}
		s.setReg(in.Rd, x.b.Const(32, uint64(next)))
		s.pc = uint32(target.Val) &^ 1
		return one(s)

	case rv32.OpBEQ, rv32.OpBNE, rv32.OpBLT, rv32.OpBGE, rv32.OpBLTU, rv32.OpBGEU:
		a, b := wrap(s.reg(in.Rs1)), wrap(s.reg(in.Rs2))
		var cond *smt.Expr
		switch in.Op {
		case rv32.OpBEQ:
			_, cond = o.CmpEq(a, b)
		case rv32.OpBNE:
			_, cond = o.CmpNe(a, b)
		case rv32.OpBLT:
			_, cond = o.CmpLt(a, b)
		case rv32.OpBGE:
			_, cond = o.CmpGe(a, b)
		case rv32.OpBLTU:
			_, cond = o.CmpLtu(a, b)
		default:
			_, cond = o.CmpGeu(a, b)
		}
		taken := cur + uint32(in.Imm)
		if cond.IsTrue() {
			s.pc = taken
			return one(s)
		}
		if cond.IsFalse() {
			s.pc = next
			return one(s)
		}
		gTaken := x.b.And(s.guard, cond)
		gNot := x.b.And(s.guard, x.b.Not(cond))
		x.obsSplits.Inc()
		switch {
		case gTaken.IsFalse():
			s.guard, s.pc = gNot, next
			return one(s)
		case gNot.IsFalse():
			s.guard, s.pc = gTaken, taken
			return one(s)
		}
		t := s.clone()
		t.guard, t.pc = gTaken, taken
		s.guard, s.pc = gNot, next
		return []*state{t, s}

	case rv32.OpLB, rv32.OpLH, rv32.OpLW, rv32.OpLBU, rv32.OpLHU:
		size := map[rv32.Op]int{rv32.OpLB: 1, rv32.OpLBU: 1, rv32.OpLH: 2, rv32.OpLHU: 2, rv32.OpLW: 4}[in.Op]
		signed := in.Op == rv32.OpLB || in.Op == rv32.OpLH
		addrE := bin(o.Add, s.reg(in.Rs1), immE)
		if !addrE.IsConst() {
			x.drop(s, "symbolic load address")
			return nil
		}
		addr := uint32(addrE.Val)
		if !x.checkAccess(s, addr, size, false) {
			return nil
		}
		if !x.dec.InRAM(addr, size) {
			if x.peripheralAt(addr) {
				x.drop(s, "peripheral load")
				return nil
			}
			x.violate(s, iss.ErrIllegalLoad, cur, addr, "", s.guard)
			return nil
		}
		s.setReg(in.Rd, x.load(s, addr, size, signed))

	case rv32.OpSB, rv32.OpSH, rv32.OpSW:
		size := map[rv32.Op]int{rv32.OpSB: 1, rv32.OpSH: 2, rv32.OpSW: 4}[in.Op]
		addrE := bin(o.Add, s.reg(in.Rs1), immE)
		if !addrE.IsConst() {
			x.drop(s, "symbolic store address")
			return nil
		}
		addr := uint32(addrE.Val)
		if !x.checkAccess(s, addr, size, true) {
			return nil
		}
		if !x.dec.InRAM(addr, size) {
			if x.peripheralAt(addr) {
				x.drop(s, "peripheral store")
				return nil
			}
			x.violate(s, iss.ErrIllegalStore, cur, addr, "", s.guard)
			return nil
		}
		x.store(s, addr, size, s.reg(in.Rs2))

	case rv32.OpADDI:
		s.setReg(in.Rd, bin(o.Add, s.reg(in.Rs1), immE))
	case rv32.OpSLTI:
		s.setReg(in.Rd, bin(o.Slt, s.reg(in.Rs1), immE))
	case rv32.OpSLTIU:
		s.setReg(in.Rd, bin(o.Sltu, s.reg(in.Rs1), immE))
	case rv32.OpXORI:
		s.setReg(in.Rd, bin(o.Xor, s.reg(in.Rs1), immE))
	case rv32.OpORI:
		s.setReg(in.Rd, bin(o.Or, s.reg(in.Rs1), immE))
	case rv32.OpANDI:
		s.setReg(in.Rd, bin(o.And, s.reg(in.Rs1), immE))
	case rv32.OpSLLI:
		s.setReg(in.Rd, bin(o.Sll, s.reg(in.Rs1), immE))
	case rv32.OpSRLI:
		s.setReg(in.Rd, bin(o.Srl, s.reg(in.Rs1), immE))
	case rv32.OpSRAI:
		s.setReg(in.Rd, bin(o.Sra, s.reg(in.Rs1), immE))

	case rv32.OpADD:
		s.setReg(in.Rd, bin(o.Add, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpSUB:
		s.setReg(in.Rd, bin(o.Sub, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpSLL:
		s.setReg(in.Rd, bin(o.Sll, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpSLT:
		s.setReg(in.Rd, bin(o.Slt, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpSLTU:
		s.setReg(in.Rd, bin(o.Sltu, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpXOR:
		s.setReg(in.Rd, bin(o.Xor, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpSRL:
		s.setReg(in.Rd, bin(o.Srl, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpSRA:
		s.setReg(in.Rd, bin(o.Sra, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpOR:
		s.setReg(in.Rd, bin(o.Or, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpAND:
		s.setReg(in.Rd, bin(o.And, s.reg(in.Rs1), s.reg(in.Rs2)))

	case rv32.OpMUL:
		s.setReg(in.Rd, bin(o.Mul, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpMULH:
		s.setReg(in.Rd, bin(o.MulH, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpMULHSU:
		s.setReg(in.Rd, bin(o.MulHSU, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpMULHU:
		s.setReg(in.Rd, bin(o.MulHU, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpDIV:
		s.setReg(in.Rd, bin(o.Div, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpDIVU:
		s.setReg(in.Rd, bin(o.DivU, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpREM:
		s.setReg(in.Rd, bin(o.Rem, s.reg(in.Rs1), s.reg(in.Rs2)))
	case rv32.OpREMU:
		s.setReg(in.Rd, bin(o.RemU, s.reg(in.Rs1), s.reg(in.Rs2)))

	case rv32.OpFENCE:
		// No-op on a single-hart VP.
	case rv32.OpECALL:
		return x.ecall(s, cur, next)
	case rv32.OpEBREAK:
		x.violate(s, iss.ErrAssertFail, cur, cur, "ebreak", s.guard)
		return nil
	case rv32.OpMRET, rv32.OpWFI,
		rv32.OpCSRRW, rv32.OpCSRRS, rv32.OpCSRRC,
		rv32.OpCSRRWI, rv32.OpCSRRSI, rv32.OpCSRRCI:
		// Interrupts, CSRs and cycle state are host-driven machinery the
		// guarded-update encoding does not model.
		x.drop(s, "csr/interrupt instruction")
		return nil
	default:
		x.violate(s, iss.ErrIllegalInstr, cur, cur, fmt.Sprintf("op %v", in.Op), s.guard)
		return nil
	}

	s.pc = next
	return one(s)
}

// fetch decodes the instruction at s.pc, reading code through the
// state's own memory: bad PCs trap like the ISS, symbolic code drops
// the state, and unmodified code decodes through the shared predecoded
// block cache.
func (x *Executor) fetch(s *state) (rv32.Inst, bool) {
	pc := s.pc
	if pc&1 != 0 {
		x.violate(s, iss.ErrIllegalJump, pc, pc, "misaligned pc", s.guard)
		return rv32.Inst{}, false
	}
	if !x.dec.InRAM(pc, 2) {
		x.violate(s, iss.ErrIllegalJump, pc, pc, "pc outside memory", s.guard)
		return rv32.Inst{}, false
	}
	word, ok := x.codeHalf(s, pc)
	if !ok {
		x.drop(s, "symbolic code")
		return rv32.Inst{}, false
	}
	size := 2
	if word&3 == 3 {
		if !x.dec.InRAM(pc, 4) {
			x.violate(s, iss.ErrIllegalJump, pc, pc, "pc outside memory", s.guard)
			return rv32.Inst{}, false
		}
		hi, ok := x.codeHalf(s, pc+2)
		if !ok {
			x.drop(s, "symbolic code")
			return rv32.Inst{}, false
		}
		word |= hi << 16
		size = 4
	}
	modified := false
	for i := uint32(0); i < uint32(size); i++ {
		if s.mem.Load(pc+i) != x.base(pc+i) {
			modified = true
			break
		}
	}
	if !modified {
		if in, ok := x.dec.DecodedAt(pc); ok {
			return in, true
		}
	}
	in := rv32.Decode(word)
	if in.Op == rv32.OpIllegal {
		x.violate(s, iss.ErrIllegalInstr, pc, pc, fmt.Sprintf("encoding %#x", word), s.guard)
		return rv32.Inst{}, false
	}
	return in, true
}

// codeHalf reads a 16-bit code unit from the state's memory; false when
// any byte is symbolic.
func (x *Executor) codeHalf(s *state, addr uint32) (uint32, bool) {
	b0 := s.mem.Load(addr)
	b1 := s.mem.Load(addr + 1)
	if !b0.IsConst() || !b1.IsConst() {
		return 0, false
	}
	return uint32(b0.Val) | uint32(b1.Val)<<8, true
}

// checkAccess mirrors iss.Core.checkAccess: null dereference, alignment
// and protected-zone checks against the concrete address. All three are
// deterministic for the whole state, so a hit kills it (false).
func (x *Executor) checkAccess(s *state, addr uint32, size int, isWrite bool) bool {
	if addr < 0x100 {
		x.violate(s, iss.ErrNullDeref, s.pc, addr, "", s.guard)
		return false
	}
	if addr%uint32(size) != 0 {
		x.violate(s, iss.ErrMisaligned, s.pc, addr, fmt.Sprintf("%d-byte access", size), s.guard)
		return false
	}
	for i := range s.zones {
		z := &s.zones[i]
		if addr < z.Start+z.Size && addr+uint32(size) > z.Start {
			kind := iss.ErrProtectedRead
			if isWrite {
				kind = iss.ErrProtectedWrite
			}
			x.violate(s, kind, s.pc, addr, fmt.Sprintf("protected zone of block %#x", z.Block), s.guard)
			return false
		}
	}
	return true
}

// peripheralAt reports whether addr falls in a registered MMIO range.
func (x *Executor) peripheralAt(addr uint32) bool {
	for i := range x.dec.Peripherals {
		p := &x.dec.Peripherals[i]
		if addr >= p.Base && addr < p.Base+p.Size {
			return true
		}
	}
	return false
}

// load reads a size-byte little-endian value and sign/zero-extends it.
func (x *Executor) load(s *state, addr uint32, size int, signed bool) *smt.Expr {
	v := s.mem.Load(addr)
	for i := 1; i < size; i++ {
		v = x.b.Concat(s.mem.Load(addr+uint32(i)), v)
	}
	if size == 4 {
		return v
	}
	if signed {
		return x.b.SExt(v, 32)
	}
	return x.b.ZExt(v, 32)
}

// store writes the low size bytes of v little-endian.
func (x *Executor) store(s *state, addr uint32, size int, v *smt.Expr) {
	for i := 0; i < size; i++ {
		lo := uint8(i * 8)
		s.mem.Store(addr+uint32(i), x.b.Extract(v, lo+7, lo))
	}
}

// ecall dispatches the CTE interface for the supported synchronous
// subset; the a7 selector must be concrete (it always is — the library
// wrappers load it with li).
func (x *Executor) ecall(s *state, cur, next uint32) []*state {
	code := s.reg(17)
	if !code.IsConst() {
		x.drop(s, "symbolic ecall selector")
		return nil
	}
	a0, a1, a2 := s.reg(10), s.reg(11), s.reg(12)

	switch uint32(code.Val) {
	case iss.SysExit:
		x.exit(s)
		return nil

	case iss.SysMakeSymbolic:
		if !a0.IsConst() || !a1.IsConst() || !a2.IsConst() {
			x.drop(s, "symbolic make_symbolic args")
			return nil
		}
		ptr, size, namePtr := uint32(a0.Val), uint32(a1.Val), uint32(a2.Val)
		name, ok, concrete := x.readCString(s, namePtr)
		if !concrete {
			x.drop(s, "symbolic make_symbolic name")
			return nil
		}
		if !ok {
			x.violate(s, iss.ErrIllegalLoad, cur, namePtr,
				fmt.Sprintf("make_symbolic name not NUL-terminated within %d bytes", concolic.CStringMax), s.guard)
			return nil
		}
		if name == "" {
			name = fmt.Sprintf("anon@%#x", ptr)
		}
		gen := s.symGen[name]
		s.symGen[name] = gen + 1
		full := fmt.Sprintf("%s#%d", name, gen)
		if gen == 0 {
			full = name
		}
		for i := uint32(0); i < size; i++ {
			s.mem.Store(ptr+i, x.b.Var(8, fmt.Sprintf("%s[%d]", full, i)))
		}

	case iss.SysAssume:
		cond := x.b.Ne(a0, x.b.Const(32, 0))
		x.prune(x.b.And(s.guard, x.b.Not(cond)))
		s.guard = x.b.And(s.guard, cond)
		if s.guard.IsFalse() {
			return nil
		}

	case iss.SysAssert:
		cond := x.b.Ne(a0, x.b.Const(32, 0))
		x.violate(s, iss.ErrAssertFail, cur, 0, "assertion violated",
			x.b.And(s.guard, x.b.Not(cond)))
		s.guard = x.b.And(s.guard, cond)
		if s.guard.IsFalse() {
			return nil
		}

	case iss.SysRegisterProtect:
		if !a0.IsConst() || !a1.IsConst() || !a2.IsConst() {
			x.drop(s, "symbolic protect args")
			return nil
		}
		addr, size, zone := uint32(a0.Val), uint32(a1.Val), uint32(a2.Val)
		s.zones = append(s.zones,
			iss.Zone{Start: addr - zone, Size: zone, Block: addr},
			iss.Zone{Start: addr + size, Size: zone, Block: addr})

	case iss.SysFreeProtect:
		if !a0.IsConst() {
			x.drop(s, "symbolic free addr")
			return nil
		}
		addr := uint32(a0.Val)
		if addr == 0 {
			x.violate(s, iss.ErrBadFree, cur, addr, "free(NULL)", s.guard)
			return nil
		}
		removed := 0
		kept := s.zones[:0]
		for _, z := range s.zones {
			if z.Block == addr {
				removed++
				continue
			}
			kept = append(kept, z)
		}
		s.zones = kept
		switch removed {
		case 2:
			// ok: both guard zones removed
		case 0:
			x.violate(s, iss.ErrDoubleFree, cur, addr, "no protected zones registered for block", s.guard)
			return nil
		default:
			x.violate(s, iss.ErrBadFree, cur, addr, "inconsistent protected zones", s.guard)
			return nil
		}

	case iss.SysPutChar:
		// Output is not a bug detector; nothing to track.

	case iss.SysNotify, iss.SysReturn, iss.SysGetCycles, iss.SysTriggerIRQ,
		iss.SysCancelNotify, iss.SysIsSymbolic:
		// Notifications, peripheral context switches and cycle/shadow
		// introspection are host-side machinery outside the encoding.
		x.drop(s, fmt.Sprintf("ecall %d", code.Val))
		return nil

	default:
		x.violate(s, iss.ErrIllegalInstr, cur, cur, fmt.Sprintf("unknown ecall %d", code.Val), s.guard)
		return nil
	}

	s.pc = next
	return one(s)
}

// readCString reads a NUL-terminated string from the state's memory.
// concrete is false when a scanned byte is symbolic; ok is false when
// no terminator exists within concolic.CStringMax bytes.
func (x *Executor) readCString(s *state, addr uint32) (str string, ok, concrete bool) {
	buf := make([]byte, 0, 16)
	for i := uint32(0); i < concolic.CStringMax; i++ {
		if !x.dec.InRAM(addr+i, 1) {
			return "", false, true
		}
		e := s.mem.Load(addr + i)
		if !e.IsConst() {
			return "", false, false
		}
		if e.Val == 0 {
			return string(buf), true, true
		}
		buf = append(buf, byte(e.Val))
	}
	return "", false, true
}
