package iss

import (
	"fmt"

	"rvcte/internal/concolic"
	"rvcte/internal/rv32"
	"rvcte/internal/smt"
)

// Exported accessors for ExecHook implementations (the nested-VM
// baseline executes through these so CTE semantics stay identical).

// Reg reads register r as a concolic value.
func (c *Core) Reg(r uint8) concolic.Value { return c.reg(r) }

// SetReg writes register r (x0 writes are discarded).
func (c *Core) SetReg(r uint8, v concolic.Value) { c.setReg(r, v) }

// Branch records a symbolic branch decision (EPC/TC bookkeeping).
func (c *Core) Branch(taken bool, cond *smt.Expr) { c.branch(taken, cond) }

// Concretize pins a concolic value to its concrete part via the EPC.
func (c *Core) Concretize(v concolic.Value, what string) uint32 {
	return c.concretize(v, what)
}

// HookLoad performs a load including MMIO routing; returns false when a
// peripheral context switch occurred.
func (c *Core) HookLoad(addr uint32, size int, rd uint8, signed bool, next uint32) bool {
	return c.memLoad(addr, size, rd, signed, next)
}

// HookStore performs a store including MMIO routing; returns false when
// a peripheral context switch occurred.
func (c *Core) HookStore(addr uint32, size int, v concolic.Value, next uint32) bool {
	return c.memStore(addr, size, v, next)
}

// effAddr computes the effective address of a load/store, concretizing a
// symbolic address (paper §2.2). Returns the concrete address. When
// AddressTCs is enabled, a ladder of alternative-address trace
// conditions is emitted before concretization so exploration can steer
// symbolic addresses into protected zones (the optional concretization
// TCs of §2.2, applied to addresses).
func (c *Core) effAddr(rs1 uint8, imm int32) uint32 {
	base := c.reg(rs1)
	addr := base.C + uint32(imm)
	if base.Sym != nil {
		full := c.Ops.Add(base, concolic.Concrete(uint32(imm)))
		if full.Sym != nil && c.AddressTCs {
			site := c.siteCount
			c.siteCount++
			if site >= c.Bound {
				for _, step := range []uint64{0, 7, 31, 127, 511, 4095} {
					target := uint64(full.C) + step
					if target > 0xffffffff {
						break
					}
					cond := c.B.Ugt(full.Sym, c.B.Const(32, target))
					if cond.IsFalse() {
						break
					}
					c.emitTC(TraceCond{EPCLen: len(c.EPC), Cond: cond, SiteIdx: site})
				}
			}
		}
		c.concretize(full, "memory address")
	}
	return addr
}

// concretize pins a (possibly symbolic) value to its concrete part by
// extending the EPC with v == N, and returns N.
func (c *Core) concretize(v concolic.Value, what string) uint32 {
	if v.Sym != nil {
		c.EPC = append(c.EPC, c.B.Eq(v.Sym, c.B.Const(32, uint64(v.C))))
		_ = what
	}
	return v.C
}

// branch handles a symbolic branch condition per §2.2: emit a TC for the
// unexplored side (subject to the generational bound) and extend the EPC
// with the taken side.
func (c *Core) branch(taken bool, cond *smt.Expr) {
	c.branchFlip(taken, cond, 0)
}

// branchFlip is branch with the not-followed successor address attached
// to the emitted trace condition (0 when the flip edge is unknown, e.g.
// for ExecHook branches through Branch).
func (c *Core) branchFlip(taken bool, cond *smt.Expr, flipTo uint32) {
	site := c.siteCount
	c.siteCount++
	var follow, flip *smt.Expr
	if taken {
		follow, flip = cond, c.B.Not(cond)
	} else {
		follow, flip = c.B.Not(cond), cond
	}
	if site >= c.Bound && !flip.IsFalse() {
		tc := TraceCond{EPCLen: len(c.EPC), Cond: flip, SiteIdx: site}
		if flipTo != 0 {
			tc.FlipFrom, tc.FlipTo = c.PC, flipTo
		}
		c.emitTC(tc)
	}
	if !follow.IsTrue() {
		c.EPC = append(c.EPC, follow)
	}
}

// memLoad performs a load, routing MMIO to peripherals. Returns false if
// a context switch happened (the load completes on CTE_return).
func (c *Core) memLoad(addr uint32, size int, rd uint8, signed bool, next uint32) bool {
	if err := c.checkAccess(addr, size, false); err {
		return true
	}
	if c.inRAM(addr, size) {
		c.setReg(rd, c.loadRAM(addr, size, signed))
		return true
	}
	p := c.findPeripheral(addr)
	if p == nil {
		c.fail(ErrIllegalLoad, addr, "")
		return true
	}
	// Global-to-local address translation, then transport(local, buf,
	// size, is_read=1) via context switch (paper §3.2.1-§3.2.2).
	args := [4]concolic.Value{
		concolic.Concrete(addr - p.Base),
		concolic.Concrete(p.Buf),
		concolic.Concrete(uint32(size)),
		concolic.Concrete(1),
	}
	c.PC = next // resume after the load once the peripheral returns
	c.enterPeripheral(p.Transport, args, pendingOp{active: true, isLoad: true, size: size, rd: rd, buf: p.Buf, signed: signed})
	return false
}

// memStore performs a store, routing MMIO to peripherals.
func (c *Core) memStore(addr uint32, size int, v concolic.Value, next uint32) bool {
	if err := c.checkAccess(addr, size, true); err {
		return true
	}
	if c.inRAM(addr, size) {
		c.Mem.Store(addr, size, v)
		return true
	}
	p := c.findPeripheral(addr)
	if p == nil {
		c.fail(ErrIllegalStore, addr, "")
		return true
	}
	// Copy the store value into the transaction buffer, then switch.
	c.Mem.Store(p.Buf, size, v)
	args := [4]concolic.Value{
		concolic.Concrete(addr - p.Base),
		concolic.Concrete(p.Buf),
		concolic.Concrete(uint32(size)),
		concolic.Concrete(0),
	}
	c.PC = next
	c.enterPeripheral(p.Transport, args, pendingOp{active: true, buf: p.Buf, size: size})
	return false
}

// loadRAM loads from RAM with sign/zero extension.
func (c *Core) loadRAM(addr uint32, size int, signed bool) concolic.Value {
	return c.extendLoaded(c.Mem.Load(addr, size), size, signed)
}

// extendLoaded applies load sign/zero extension to a raw value.
func (c *Core) extendLoaded(v concolic.Value, size int, signed bool) concolic.Value {
	switch size {
	case 1:
		if signed {
			return c.Ops.SextByte(v)
		}
		return c.Ops.ZextByte(v)
	case 2:
		if signed {
			return c.Ops.SextHalf(v)
		}
		return c.Ops.ZextHalf(v)
	}
	return v
}

// checkAccess runs the generic runtime checks: null dereference and
// alignment inline, then the access checks of the attached detectors
// (detect.go; the stock set scans the protected heap guard zones).
// Returns true when the path has failed.
func (c *Core) checkAccess(addr uint32, size int, isWrite bool) bool {
	if addr < 0x100 {
		c.fail(ErrNullDeref, addr, "")
		return true
	}
	if addr%uint32(size) != 0 {
		c.fail(ErrMisaligned, addr, fmt.Sprintf("%d-byte access", size))
		return true
	}
	if err := c.detectAccess(addr, size, isWrite); err != nil {
		if c.Err == nil {
			c.Err = err
		}
		return true
	}
	return false
}

// enterPeripheral saves the execution context and jumps to a peripheral
// function (paper §3.2.2). Args are placed in a0..a3.
func (c *Core) enterPeripheral(fn uint32, args [4]concolic.Value, pend pendingOp) {
	ctx := savedCtx{regs: c.Regs, pc: c.PC, pending: pend}
	c.ctxStack = append(c.ctxStack, ctx)
	for i, a := range args {
		c.Regs[10+i] = a
	}
	// ra points at an invalid address: well-formed peripheral models end
	// with CTE_return, never a plain ret.
	c.Regs[1] = concolic.Concrete(0xdead0000)
	if c.Cfg.PeriphStackTop != 0 && len(c.ctxStack) == 1 {
		c.Regs[2] = concolic.Concrete(c.Cfg.PeriphStackTop)
	}
	c.PC = fn
	// The block runner must stop and re-dispatch at the peripheral entry.
	c.bbAbort = true
}

// cteReturn pops the context stack and completes any pending memory
// operation (the CTE_return interface function).
func (c *Core) cteReturn() {
	if len(c.ctxStack) == 0 {
		c.fail(ErrIllegalInstr, c.PC, "CTE_return outside peripheral context")
		return
	}
	ctx := c.ctxStack[len(c.ctxStack)-1]
	c.ctxStack = c.ctxStack[:len(c.ctxStack)-1]
	c.Regs = ctx.regs
	c.PC = ctx.pc
	if ctx.pending.active && ctx.pending.isLoad {
		v := c.loadRAM(ctx.pending.buf, ctx.pending.size, ctx.pending.signed)
		c.setReg(ctx.pending.rd, v)
	}
}

// readCSR implements the machine-mode CSR file.
func (c *Core) readCSR(csr uint16) uint32 {
	switch csr {
	case rv32.CSRMStatus:
		return c.MStatus
	case rv32.CSRMISA:
		return 1<<30 | 1<<8 | 1<<12 | 1<<2 // RV32IMC
	case rv32.CSRMIE:
		return c.MIE
	case rv32.CSRMIP:
		return c.MIP
	case rv32.CSRMTVec:
		return c.MTVec
	case rv32.CSRMScratch:
		return c.MScratch
	case rv32.CSRMEPC:
		return c.MEPC
	case rv32.CSRMCause:
		return c.MCause
	case rv32.CSRMTVal:
		return c.MTVal
	case rv32.CSRMCycle:
		return uint32(c.Cycles)
	case rv32.CSRMCycleH:
		return uint32(c.Cycles >> 32)
	case rv32.CSRMHartID:
		return 0
	}
	return 0
}

func (c *Core) writeCSR(csr uint16, v uint32) {
	switch csr {
	case rv32.CSRMStatus:
		c.MStatus = v
	case rv32.CSRMIE:
		c.MIE = v
	case rv32.CSRMIP:
		c.MIP = v
	case rv32.CSRMTVec:
		c.MTVec = v
	case rv32.CSRMScratch:
		c.MScratch = v
	case rv32.CSRMEPC:
		c.MEPC = v
	case rv32.CSRMCause:
		c.MCause = v
	case rv32.CSRMTVal:
		c.MTVal = v
	}
}
