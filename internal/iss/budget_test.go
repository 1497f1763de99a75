package iss_test

import (
	"bytes"
	"slices"
	"testing"

	"rvcte/internal/asm"
	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

// eventsSrc drives every way the pending-notification list changes:
// CTE_notify appending and resetting, CTE_cancel_notify, delivery of
// notifications, interrupts raised by them, and wfi jumping time to the
// earliest due notification (the alarm, armed 40+ cycles out, is still
// pending at every wfi).
const eventsSrc = `
_start:
	la t0, handler
	csrw mtvec, t0
	li t0, 0x800
	csrw mie, t0           # enable line 11
	csrrsi zero, mstatus, 8 # global interrupt enable
	li s0, 0
	li s1, 40
loop:
	la a0, other
	li a1, 12
	li a7, 4
	ecall                  # CTE_notify(other, 12): append, the earliest
	andi t0, s0, 1
	beqz t0, keep
	la a0, other
	li a7, 11
	ecall                  # CTE_cancel_notify(other) on odd iterations
keep:
	la a0, tick
	li a1, 30
	li a7, 4
	ecall                  # CTE_notify(tick, 30): append
	la a0, tick
	andi a1, s0, 15
	addi a1, a1, 3
	li a7, 4
	ecall                  # CTE_notify(tick, 3 + i%16): reset
	li t3, 0x12345678      # lui+addi
	slt t4, s0, s1
	beqz t4, skip          # slt+beqz
	addi t3, t3, 1
skip:
	la a0, alarm
	andi a1, s0, 7
	addi a1, a1, 40
	li a7, 4
	ecall                  # CTE_notify(alarm, 40 + i%8): append
	la a0, alarm
	li a7, 4
	ecall                  # CTE_notify(alarm, 40 + i%8): reset
	andi t0, s0, 3
	bnez t0, nowait
	wfi
nowait:
	li t5, 0x0badf00d      # lui+addi
	sltu t6, t5, t3
	bnez t6, next          # sltu+bnez
	addi t5, t5, 3
next:
	addi s0, s0, 1
	blt s0, s1, loop
	li a0, 0
	li a7, 0
	ecall

tick:
	li a0, 11
	li a1, 1
	li a7, 7
	ecall                  # raise line 11
	li a7, 5
	ecall                  # CTE_return
other:
	li a7, 5
	ecall                  # CTE_return
alarm:
	j tick
handler:
	csrw mip, zero
	mret
`

// eventsCore builds the eventsSrc guest.
func eventsCore(t *testing.T) *iss.Core {
	t.Helper()
	img, err := asm.Assemble(eventsSrc, tRamBase)
	if err != nil {
		t.Fatal(err)
	}
	c := iss.New(smt.NewBuilder(), iss.Config{RamBase: tRamBase, RamSize: tRamSize, MaxInstr: 1_000_000})
	c.LoadImage(img.Origin, img.Bytes, img.Entry())
	return c
}

// TestBudgetMatchesSteps checks the block-granular prologue against the
// one-record path. For every budget k of each range, Run(k) on a clone
// of the frozen snapshot (cached blocks, whose budget test runs only in
// blocks that may reach k) must end where stepping one record at a time
// ends once k instructions have retired: same InstrCount,
// Cycles, PC, context depth, output, edge map and touched list, and an
// ErrLimit at that PC unless the guest halted first (then the same
// error). After every step and every run the cached event horizon must
// equal the earliest pending Due. The guests take notifications and
// interrupts (the FreeRTOS sensor guest and eventsSrc) or
// none but branch densely (storm-s).
func TestBudgetMatchesSteps(t *testing.T) {
	storm, _ := guest.BenchProgram("storm-s")
	for _, g := range []struct {
		name   string
		core   func(*testing.T) *iss.Core
		ranges [][2]uint64
	}{
		{"freertos-sensor", func(t *testing.T) *iss.Core { return newGuestCore(t, guest.FreeRTOSSensorProgram(false, 40)) },
			[][2]uint64{{1, 3000}, {11400, 11800}}},
		{"storm-s", func(t *testing.T) *iss.Core { return newGuestCore(t, storm) }, [][2]uint64{{1, 600}}},
		{"events", eventsCore, [][2]uint64{{1, 4000}}},
	} {
		t.Run(g.name, func(t *testing.T) {
			snap := g.core(t)
			snap.Freeze()
			ref := snap.Clone()
			ref.EdgeMap = make([]byte, 1<<12)
			events := 0
			for _, r := range g.ranges {
				for k := r[0]; k < r[1]; k++ {
					for ref.InstrCount < k && !ref.Halted() {
						n, depth := ref.InstrCount, iss.CtxDepth(ref)
						ref.Step()
						if ref.InstrCount == n || iss.CtxDepth(ref) > depth {
							events++
						}
						checkNextDue(t, "step", ref)
					}
					run := snap.Clone()
					run.EdgeMap = make([]byte, 1<<12)
					run.Run(k)
					checkNextDue(t, "run", run)
					compareBudgetRun(t, k, ref, run)
					if t.Failed() || ref.Halted() {
						break
					}
				}
			}
			t.Logf("%d instructions stepped, %d events, exited=%v err=%v", ref.InstrCount, events, ref.Exited, ref.Err)
			if g.name != "storm-s" && events == 0 {
				t.Fatal("no notification or interrupt in the swept ranges")
			}
		})
	}
}

func newGuestCore(t *testing.T, p guest.Program) *iss.Core {
	t.Helper()
	c, _, err := guest.NewCore(smt.NewBuilder(), p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func checkNextDue(t *testing.T, what string, c *iss.Core) {
	t.Helper()
	if cached, want := iss.NextDue(c); cached != want {
		t.Fatalf("after %s at instr %d: nextDue %d, earliest pending Due %d", what, c.InstrCount, cached, want)
	}
}

func compareBudgetRun(t *testing.T, k uint64, ref, run *iss.Core) {
	t.Helper()
	if run.InstrCount != ref.InstrCount || run.Cycles != ref.Cycles || run.PC != ref.PC ||
		iss.CtxDepth(run) != iss.CtxDepth(ref) {
		t.Errorf("k=%d: Run ends at instr=%d cycles=%d pc=%#x depth=%d, steps at instr=%d cycles=%d pc=%#x depth=%d",
			k, run.InstrCount, run.Cycles, run.PC, iss.CtxDepth(run), ref.InstrCount, ref.Cycles, ref.PC, iss.CtxDepth(ref))
	}
	wantErr := &iss.SimError{Kind: iss.ErrLimit, PC: ref.PC}
	if ref.Halted() {
		wantErr = ref.Err
	}
	switch {
	case (run.Err == nil) != (wantErr == nil):
		t.Errorf("k=%d: Run error %v, want %v", k, run.Err, wantErr)
	case run.Err != nil && (run.Err.Kind != wantErr.Kind || run.Err.PC != wantErr.PC):
		t.Errorf("k=%d: Run error %v at %#x, want %v at %#x", k, run.Err.Kind, run.Err.PC, wantErr.Kind, wantErr.PC)
	}
	if run.Exited != ref.Exited || !bytes.Equal(run.Output, ref.Output) {
		t.Errorf("k=%d: exited %v output %q, steps exited %v output %q", k, run.Exited, run.Output, ref.Exited, ref.Output)
	}
	if !bytes.Equal(run.EdgeMap, ref.EdgeMap) || !slices.Equal(run.EdgeTouched, ref.EdgeTouched) {
		t.Errorf("k=%d: edge map or touched list differs (%d vs %d touched)", k, len(run.EdgeTouched), len(ref.EdgeTouched))
	}
}
