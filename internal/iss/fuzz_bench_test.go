package iss

import (
	"testing"

	"rvcte/internal/asm"
	"rvcte/internal/smt"
)

// benchGuest makes a 64-byte buffer symbolic and runs a branchy
// checksum over it — every load pulls a symbolic byte through the ALU,
// so the concolic run pays the full shadow-expression tax on each
// iteration while the concrete fast path pays none.
const benchGuest = `
_start:
	la a0, buf
	li a1, 64
	la a2, name
	li a7, 1
	ecall            # make_symbolic(buf, 64, "x")
	li a4, 0         # checksum
	li s1, 0         # pass counter
pass:
	la a3, buf
	li t0, 0
loop:
	lbu t1, 0(a3)
	andi t2, t1, 1
	beqz t2, even
	slli t1, t1, 1
even:
	add a4, a4, t1
	xor a4, a4, t0
	addi a3, a3, 1
	addi t0, t0, 1
	li t3, 64
	bltu t0, t3, loop
	addi s1, s1, 1
	li t3, 32
	bltu s1, t3, pass
	mv a0, a4
	li a7, 0
	ecall
.data
buf: .space 64
name: .asciz "x"
`

func buildBenchSnapshot(b *testing.B) *Core {
	b.Helper()
	img, err := asm.Assemble(benchGuest, ramBase)
	if err != nil {
		b.Fatalf("assemble: %v", err)
	}
	c := New(smt.NewBuilder(), Config{RamBase: ramBase, RamSize: ramSize, MaxInstr: 1_000_000})
	c.LoadImage(img.Origin, img.Bytes, img.Entry())
	c.Freeze()
	return c
}

var benchInput = func() []byte {
	in := make([]byte, 64)
	for i := range in {
		in[i] = byte(i*37 + 11)
	}
	return in
}()

// benchVariants are the block-cache ablation axes (EXPERIMENTS.md
// "Block cache ablation"): the default predecoded-dispatch path and the
// uncached one-record path (a declining ExecHook: one instruction
// decoded per step).
var benchVariants = []struct {
	name    string
	noCache bool
}{
	{"bb", false},
	{"nocache", true},
}

// BenchmarkConcreteExec measures one fuzz-style execution: clone the
// frozen snapshot, run ConcreteOnly with the edge bitmap enabled, then
// zero the touched slots as the fuzzer does. This is the hot loop of the
// hybrid fuzzer.
func BenchmarkConcreteExec(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) {
			snap := buildBenchSnapshot(b)
			edge := make([]byte, 1<<16)
			var touched []uint32
			var instrs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := snap.Clone()
				if v.noCache {
					c.ExecHook = declineHook
				}
				c.ConcreteOnly = true
				c.FuzzInput = benchInput
				c.EdgeMap = edge
				c.EdgeTouched = touched[:0]
				c.Run(0)
				if c.Err != nil {
					b.Fatal(c.Err)
				}
				instrs += c.InstrCount
				touched = c.EdgeTouched
				for _, idx := range touched {
					edge[idx] = 0
				}
			}
			b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
		})
	}
}

// BenchmarkConcolicExec measures the same execution with the full
// concolic shadow (fuzz-input replay: variables minted, symbolic bytes
// propagated, trace conditions emitted). The ratio against
// BenchmarkConcreteExec is the per-execution concolic tax the hybrid
// loop avoids on the fuzzing fast path.
func BenchmarkConcolicExec(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) {
			snap := buildBenchSnapshot(b)
			var instrs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := snap.Clone()
				if v.noCache {
					c.ExecHook = declineHook
				}
				c.FuzzInput = benchInput
				c.Run(0)
				if c.Err != nil {
					b.Fatal(c.Err)
				}
				instrs += c.InstrCount
			}
			b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
		})
	}
}
