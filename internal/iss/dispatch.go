package iss

import (
	"fmt"

	"rvcte/internal/concolic"
	"rvcte/internal/rv32"
	"rvcte/internal/smt"
)

// This file is the ISS's only executor: a direct-threaded engine over
// decoded records. Each record carries a handler function pointer
// resolved once at decode time, so the hot loop is prologue → indirect
// call → epilogue with no fetch, no rv32.Decode and no opcode switch.
// Records come in predecoded blocks from the block cache (bbcache.go),
// or one at a time for Step and for cores with an ExecHook
// (decodeOne). The independent references are the concrete VP
// (internal/vp) and the nested interpreter (internal/nestedvm).

// decoded is one pre-resolved operation record of a basic block. Cached
// records are immutable after decode (blocks are shared across clones).
type decoded struct {
	fn     stepFn
	op     rv32.Op
	rd     uint8
	rs1    uint8
	rs2    uint8
	msize  uint8 // memory access size in bytes (loads/stores)
	signed bool  // sign-extend the loaded value
	imm    int32
	pc     uint32
	npc    uint32 // pc + instruction size
	loc    uint32 // edgeLoc(pc), the edge-map hash of this instruction
	inst   rv32.Inst
}

// stepFn executes one decoded record; the runner retires it afterwards.
type stepFn func(c *Core, d *decoded)

var stepTab [rv32.NumOps]stepFn

func init() {
	stepTab[rv32.OpLUI] = stepLUI
	stepTab[rv32.OpAUIPC] = stepAUIPC
	stepTab[rv32.OpJAL] = stepJAL
	stepTab[rv32.OpJALR] = stepJALR
	for _, op := range []rv32.Op{rv32.OpBEQ, rv32.OpBNE, rv32.OpBLT, rv32.OpBGE, rv32.OpBLTU, rv32.OpBGEU} {
		stepTab[op] = stepBranch
	}
	for _, op := range []rv32.Op{rv32.OpLB, rv32.OpLH, rv32.OpLW, rv32.OpLBU, rv32.OpLHU} {
		stepTab[op] = stepLoad
	}
	for _, op := range []rv32.Op{rv32.OpSB, rv32.OpSH, rv32.OpSW} {
		stepTab[op] = stepStore
	}
	stepTab[rv32.OpADDI] = stepADDI
	stepTab[rv32.OpSLTI] = stepSLTI
	stepTab[rv32.OpSLTIU] = stepSLTIU
	stepTab[rv32.OpXORI] = stepXORI
	stepTab[rv32.OpORI] = stepORI
	stepTab[rv32.OpANDI] = stepANDI
	stepTab[rv32.OpSLLI] = stepSLLI
	stepTab[rv32.OpSRLI] = stepSRLI
	stepTab[rv32.OpSRAI] = stepSRAI
	stepTab[rv32.OpADD] = stepADD
	stepTab[rv32.OpSUB] = stepSUB
	stepTab[rv32.OpSLL] = stepSLL
	stepTab[rv32.OpSLT] = stepSLT
	stepTab[rv32.OpSLTU] = stepSLTU
	stepTab[rv32.OpXOR] = stepXOR
	stepTab[rv32.OpSRL] = stepSRL
	stepTab[rv32.OpSRA] = stepSRA
	stepTab[rv32.OpOR] = stepOR
	stepTab[rv32.OpAND] = stepAND
	stepTab[rv32.OpMUL] = stepMUL
	stepTab[rv32.OpMULH] = stepMULH
	stepTab[rv32.OpMULHSU] = stepMULHSU
	stepTab[rv32.OpMULHU] = stepMULHU
	stepTab[rv32.OpDIV] = stepDIV
	stepTab[rv32.OpDIVU] = stepDIVU
	stepTab[rv32.OpREM] = stepREM
	stepTab[rv32.OpREMU] = stepREMU
	stepTab[rv32.OpFENCE] = stepFENCE
	stepTab[rv32.OpECALL] = stepECALL
	stepTab[rv32.OpEBREAK] = stepEBREAK
	stepTab[rv32.OpMRET] = stepMRET
	stepTab[rv32.OpWFI] = stepWFI
	for _, op := range []rv32.Op{rv32.OpCSRRW, rv32.OpCSRRS, rv32.OpCSRRC} {
		stepTab[op] = stepCSR
	}
	for _, op := range []rv32.Op{rv32.OpCSRRWI, rv32.OpCSRRSI, rv32.OpCSRRCI} {
		stepTab[op] = stepCSRI
	}
	for op, fn := range stepTab {
		if fn == nil {
			stepTab[op] = stepUnknown
		}
	}
}

// makeDecoded builds the operation record for inst at pc, resolving the
// handler and pre-computing the load/store metadata.
func makeDecoded(pc uint32, inst rv32.Inst) decoded {
	d := decoded{
		fn: stepTab[inst.Op], op: inst.Op,
		rd: inst.Rd, rs1: inst.Rs1, rs2: inst.Rs2,
		imm: inst.Imm, pc: pc, npc: pc + uint32(inst.Size), loc: edgeLoc(pc), inst: inst,
	}
	switch inst.Op {
	case rv32.OpLB:
		d.msize, d.signed = 1, true
	case rv32.OpLBU, rv32.OpSB:
		d.msize = 1
	case rv32.OpLH:
		d.msize, d.signed = 2, true
	case rv32.OpLHU, rv32.OpSH:
		d.msize = 2
	case rv32.OpLW, rv32.OpSW:
		d.msize = 4
	}
	return d
}

// runBlock executes the records of b in order. Each record boundary
// runs the per-instruction prologue: budget check, event delivery at
// peripheral depth 0, edge map and the mode-dependent bookkeeping. The
// prologue is block-granular where that cannot be observed: a block
// whose retirements all fit in the budget skips the per-record budget
// test, and event delivery is attempted only when a notification is due
// (nextDue) or an enabled interrupt is pending. runBlock returns on halt,
// on a control transfer out of the block (last record), on a context
// switch, and on bbAbort (peripheral entry or block invalidation).
func (c *Core) runBlock(b *bblock, maxInstr uint64) {
	// Each record retires one instruction, so a block that fits cannot
	// reach the budget at any of its boundaries.
	budget := maxInstr > 0 && c.InstrCount+uint64(len(b.ops)) > maxInstr
	for i := range b.ops {
		d := &b.ops[i]
		c.PC = d.pc
		if budget && c.InstrCount >= maxInstr {
			c.fail(ErrLimit, c.PC, fmt.Sprintf("after %d instructions", c.InstrCount))
			return
		}
		if len(c.ctxStack) == 0 && (c.Cycles >= c.nextDue || c.irqPending()) &&
			(c.dispatchNotifications() || c.takeInterrupt()) {
			return // context-switched into a peripheral function or a handler
		}
		if c.protoDirty {
			c.protoRefresh()
		}
		if c.EdgeMap != nil {
			if c.edgeMask == 0 {
				c.initEdgeBank()
			}
			c.hitEdge(d.loc)
		}
		if c.bookkeeping {
			c.bookkeep(d.pc, d.inst)
		}
		c.bbAbort = false
		d.fn(c, d)
		c.retire(d.op)
		if c.Halted() || c.bbAbort {
			return
		}
	}
}

// retire counts one retired instruction and charges its cycles.
func (c *Core) retire(op rv32.Op) {
	c.InstrCount++
	if c.CyclesPer != nil {
		c.Cycles += c.CyclesPer(op)
	} else {
		c.Cycles++
	}
}

// hitEdge counts the control-flow edge into the instruction whose
// decode-time hash is loc (edgeLoc) in the current protocol bank, and
// lists the slot in EdgeTouched when its count leaves zero. The caller
// has derived the bank mask (initEdgeBank).
func (c *Core) hitEdge(loc uint32) {
	idx := c.protoBank + (loc^c.prevLoc)&c.edgeMask
	c.prevLoc = loc >> 1
	v := c.EdgeMap[idx]
	if v == 0 {
		c.EdgeTouched = append(c.EdgeTouched, idx)
	}
	if v != 0xff {
		c.EdgeMap[idx] = v + 1
	}
}

// bookkeep is the per-instruction work only some modes need: the fork
// pre-state (CaptureForks), PC coverage (TrackCoverage) and the trace
// ring (TraceDepth). Run and Step enable it for the whole call through
// c.bookkeeping, so the fuzz and plain paths pay one test per record.
func (c *Core) bookkeep(pc uint32, inst rv32.Inst) {
	if c.CaptureForks {
		c.recordPreState()
	}
	if c.TrackCoverage {
		c.Coverage.Add(pc)
	}
	if c.TraceDepth > 0 {
		if len(c.traceRing) < c.TraceDepth {
			c.traceRing = append(c.traceRing, TraceEntry{PC: pc, Inst: inst})
		} else {
			c.traceRing[c.traceNext] = TraceEntry{PC: pc, Inst: inst}
		}
		c.traceNext = (c.traceNext + 1) % c.TraceDepth
	}
}

// stepHooked is the handler of every record a core with an ExecHook
// runs: the hook sees the instruction first, and the opcode's own
// handler runs only when the hook declines it.
func stepHooked(c *Core, d *decoded) {
	if !c.ExecHook(c, d.inst) {
		stepTab[d.op](c, d)
	}
}

func stepUnknown(c *Core, d *decoded) {
	c.fail(ErrIllegalInstr, c.PC, d.op.String())
}

func stepLUI(c *Core, d *decoded) {
	c.setReg(d.rd, concolic.Concrete(uint32(d.imm)))
	aluTail(c, d)
}

func stepAUIPC(c *Core, d *decoded) {
	c.setReg(d.rd, concolic.Concrete(d.pc+uint32(d.imm)))
	aluTail(c, d)
}

func stepJAL(c *Core, d *decoded) {
	c.setReg(d.rd, concolic.Concrete(d.npc))
	c.PC = d.pc + uint32(d.imm)
}

func stepJALR(c *Core, d *decoded) {
	target := c.reg(d.rs1)
	taddr := c.concretize(target, "jump target")
	c.setReg(d.rd, concolic.Concrete(d.npc))
	c.PC = (taddr + uint32(d.imm)) &^ 1
}

func stepBranch(c *Core, d *decoded) {
	o := c.Ops
	a, b := c.reg(d.rs1), c.reg(d.rs2)
	var taken bool
	var cond *smt.Expr
	switch d.op {
	case rv32.OpBEQ:
		taken, cond = o.CmpEq(a, b)
	case rv32.OpBNE:
		taken, cond = o.CmpNe(a, b)
	case rv32.OpBLT:
		taken, cond = o.CmpLt(a, b)
	case rv32.OpBGE:
		taken, cond = o.CmpGe(a, b)
	case rv32.OpBLTU:
		taken, cond = o.CmpLtu(a, b)
	default:
		taken, cond = o.CmpGeu(a, b)
	}
	if cond != nil {
		flipTo := d.npc
		if !taken {
			flipTo = d.pc + uint32(d.imm)
		}
		c.branchFlip(taken, cond, flipTo)
	}
	if taken {
		c.PC = d.pc + uint32(d.imm)
	} else {
		c.PC = d.npc
	}
}

func stepLoad(c *Core, d *decoded) {
	addr := c.effAddr(d.rs1, d.imm)
	// memLoad and memStore return false on a context switch (bbAbort set
	// by enterPeripheral): the PC then stays with the peripheral.
	if !c.Halted() && c.memLoad(addr, int(d.msize), d.rd, d.signed, d.npc) {
		aluTail(c, d)
	}
}

func stepStore(c *Core, d *decoded) {
	addr := c.effAddr(d.rs1, d.imm)
	if !c.Halted() && c.memStore(addr, int(d.msize), c.reg(d.rs2), d.npc) {
		aluTail(c, d)
	}
}

// aluTail advances the PC after a non-branching record.
func aluTail(c *Core, d *decoded) {
	if !c.Halted() {
		c.PC = d.npc
	}
}

func stepADDI(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Add(c.reg(d.rs1), concolic.Concrete(uint32(d.imm))))
	aluTail(c, d)
}

func stepSLTI(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Slt(c.reg(d.rs1), concolic.Concrete(uint32(d.imm))))
	aluTail(c, d)
}

func stepSLTIU(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Sltu(c.reg(d.rs1), concolic.Concrete(uint32(d.imm))))
	aluTail(c, d)
}

func stepXORI(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Xor(c.reg(d.rs1), concolic.Concrete(uint32(d.imm))))
	aluTail(c, d)
}

func stepORI(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Or(c.reg(d.rs1), concolic.Concrete(uint32(d.imm))))
	aluTail(c, d)
}

func stepANDI(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.And(c.reg(d.rs1), concolic.Concrete(uint32(d.imm))))
	aluTail(c, d)
}

func stepSLLI(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Sll(c.reg(d.rs1), concolic.Concrete(uint32(d.imm))))
	aluTail(c, d)
}

func stepSRLI(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Srl(c.reg(d.rs1), concolic.Concrete(uint32(d.imm))))
	aluTail(c, d)
}

func stepSRAI(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Sra(c.reg(d.rs1), concolic.Concrete(uint32(d.imm))))
	aluTail(c, d)
}

func stepADD(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Add(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepSUB(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Sub(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepSLL(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Sll(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepSLT(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Slt(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepSLTU(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Sltu(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepXOR(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Xor(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepSRL(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Srl(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepSRA(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Sra(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepOR(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Or(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepAND(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.And(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepMUL(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Mul(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepMULH(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.MulH(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepMULHSU(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.MulHSU(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepMULHU(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.MulHU(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepDIV(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Div(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepDIVU(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.DivU(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepREM(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.Rem(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepREMU(c *Core, d *decoded) {
	c.setReg(d.rd, c.Ops.RemU(c.reg(d.rs1), c.reg(d.rs2)))
	aluTail(c, d)
}

func stepFENCE(c *Core, d *decoded) {
	// No-op on a single-hart VP (block-terminal for FENCE.I conservatism).
	aluTail(c, d)
}

func stepECALL(c *Core, d *decoded) {
	c.ecall()
	if c.Halted() {
		return
	}
	// CTE_return redirects the PC; only advance when the ecall left it in
	// place.
	if c.PC == d.pc {
		c.PC = d.npc
	}
}

func stepEBREAK(c *Core, d *decoded) {
	c.fail(ErrAssertFail, c.PC, "ebreak")
}

func stepMRET(c *Core, d *decoded) {
	const mieBit, mpieBit = uint32(1 << 3), uint32(1 << 7)
	c.MStatus = c.MStatus&^mieBit | (c.MStatus&mpieBit)>>4
	c.MStatus |= mpieBit
	c.PC = c.MEPC
	c.detectMRet()
}

func stepWFI(c *Core, d *decoded) {
	c.waitForInterrupt()
	aluTail(c, d)
}

func stepCSR(c *Core, d *decoded) {
	old := c.readCSR(uint16(d.imm))
	nv := c.concretize(c.reg(d.rs1), "csr write")
	switch d.op {
	case rv32.OpCSRRW:
		c.writeCSR(uint16(d.imm), nv)
	case rv32.OpCSRRS:
		if d.rs1 != 0 {
			c.writeCSR(uint16(d.imm), old|nv)
		}
	case rv32.OpCSRRC:
		if d.rs1 != 0 {
			c.writeCSR(uint16(d.imm), old&^nv)
		}
	}
	c.setReg(d.rd, concolic.Concrete(old))
	aluTail(c, d)
}

func stepCSRI(c *Core, d *decoded) {
	old := c.readCSR(uint16(d.imm))
	z := uint32(d.rs2)
	switch d.op {
	case rv32.OpCSRRWI:
		c.writeCSR(uint16(d.imm), z)
	case rv32.OpCSRRSI:
		if z != 0 {
			c.writeCSR(uint16(d.imm), old|z)
		}
	case rv32.OpCSRRCI:
		if z != 0 {
			c.writeCSR(uint16(d.imm), old&^z)
		}
	}
	c.setReg(d.rd, concolic.Concrete(old))
	aluTail(c, d)
}
