package iss

import (
	"bytes"
	"testing"
)

// TestFetchFaultAfterPendingEvent: a PC that cannot be fetched still
// takes the instruction boundary's events first. A due notification
// switches into its peripheral function (which returns straight back to
// the bad PC), a pending interrupt vectors to its handler (which clears
// the line and returns there too), and only then does the path fail
// with the fetch error. The fault itself retires nothing: InstrCount,
// Cycles and the edge map keep their pre-fault values, and Step and Run
// end in the same state.
func TestFetchFaultAfterPendingEvent(t *testing.T) {
	src := `
	_start:
		li a0, 0
	` + exitSeq + `
	.globl notified
	notified:
		addi a7, zero, 5
		ecall              # CTE_return
	.globl handler
	handler:
		csrw mip, zero
		mret
	`
	img := mustImage(t, src)
	for _, bad := range []struct {
		name string
		pc   uint32
		kind ErrKind
	}{
		{"misaligned", ramBase + 1, ErrIllegalJump},
		{"outside RAM", ramBase + ramSize, ErrIllegalJump},
		{"undecodable word", ramBase + 0x800, ErrIllegalInstr},
	} {
		setup := func() *Core {
			c := buildCore(t, src)
			c.EdgeMap = make([]byte, 1<<10)
			c.PC = bad.pc
			c.notifications = append(c.notifications, notification{Fn: img.Symbols["notified"], Due: 0})
			c.MTVec = img.Symbols["handler"]
			c.MIE = 1 << 11
			c.MStatus |= 1 << 3
			c.MIP |= 1 << 11
			return c
		}

		c := setup()
		c.Step() // notification: context switch plus its first instruction
		if CtxDepth(c) != 1 || c.InstrCount != 1 || c.Err != nil {
			t.Fatalf("%s: first step depth=%d instr=%d err=%v, want the notification delivered first",
				bad.name, CtxDepth(c), c.InstrCount, c.Err)
		}
		c.Step() // CTE_return back to the bad PC
		c.Step() // interrupt taken at the bad PC: no instruction retires
		if c.PC != img.Symbols["handler"] || c.MEPC != bad.pc || c.InstrCount != 2 || c.Err != nil {
			t.Fatalf("%s: interrupt step pc=%#x mepc=%#x instr=%d err=%v", bad.name, c.PC, c.MEPC, c.InstrCount, c.Err)
		}
		c.Step()
		c.Step() // mret back to the bad PC
		if c.PC != bad.pc || c.Err != nil {
			t.Fatalf("%s: handler left pc=%#x err=%v", bad.name, c.PC, c.Err)
		}
		instr, cycles, edges := c.InstrCount, c.Cycles, bytes.Clone(c.EdgeMap)
		c.Step()
		if c.Err == nil || c.Err.Kind != bad.kind || c.Err.PC != bad.pc {
			t.Fatalf("%s: fault %v, want %v at %#x", bad.name, c.Err, bad.kind, bad.pc)
		}
		if c.InstrCount != instr || c.Cycles != cycles || !bytes.Equal(c.EdgeMap, edges) {
			t.Fatalf("%s: the fault retired something: instr %d->%d cycles %d->%d", bad.name, instr, c.InstrCount, cycles, c.Cycles)
		}

		r := setup()
		r.Run(0)
		if r.Err == nil || *r.Err != *c.Err || r.InstrCount != c.InstrCount || r.Cycles != c.Cycles || !bytes.Equal(r.EdgeMap, c.EdgeMap) {
			t.Fatalf("%s: Run ended err=%v instr=%d cycles=%d, Step ended err=%v instr=%d cycles=%d",
				bad.name, r.Err, r.InstrCount, r.Cycles, c.Err, c.InstrCount, c.Cycles)
		}
	}
}
