package iss_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

// stepContractHash pins the observable effect of every Step on the
// FreeRTOS sensor guest (a 40-sample concrete run), which takes
// notifications (context switches into peripheral functions) and timer
// interrupts: after each of the first 200 000 steps it hashes PC,
// InstrCount, Cycles, the peripheral context depth and the error kind.
// Step's contract is that one call retires one instruction or takes one
// interrupt, and that a notification's context switch runs the
// peripheral's first instruction in the same call; the hybrid engine's
// skip-init probe counts and replays steps, so any drift here moves its
// snapshot point.
const stepContractHash = "ecd7a53f991b3443"

func TestStepContractPinned(t *testing.T) {
	c, _, err := guest.NewCore(smt.NewBuilder(), guest.FreeRTOSSensorProgram(false, 40))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [28]byte
	var switches, irqs int
	for i := 0; i < 200_000; i++ {
		n, depth := c.InstrCount, iss.CtxDepth(c)
		c.Step()
		if iss.CtxDepth(c) > depth {
			switches++
		}
		if c.InstrCount == n && !c.Halted() {
			irqs++
		}
		kind := iss.ErrNone
		if c.Err != nil {
			kind = c.Err.Kind
		}
		binary.LittleEndian.PutUint32(buf[0:], c.PC)
		binary.LittleEndian.PutUint64(buf[4:], c.InstrCount)
		binary.LittleEndian.PutUint64(buf[12:], c.Cycles)
		binary.LittleEndian.PutUint32(buf[20:], uint32(iss.CtxDepth(c)))
		binary.LittleEndian.PutUint32(buf[24:], uint32(kind))
		h.Write(buf[:])
	}
	if switches == 0 || irqs == 0 {
		t.Fatalf("guest took %d peripheral switches and %d interrupts; the pin needs both", switches, irqs)
	}
	got := fmt.Sprintf("%016x", h.Sum64())
	t.Logf("%d switches, %d interrupts, instr=%d cycles=%d exited=%v err=%v", switches, irqs, c.InstrCount, c.Cycles, c.Exited, c.Err)
	if got != stepContractHash {
		t.Fatalf("step contract hash %s, pinned %s", got, stepContractHash)
	}
}
