package vp

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"rvcte/internal/iss"
	"rvcte/internal/nestedvm"
	"rvcte/internal/rv32"
	"rvcte/internal/smt"
)

// straightLineOps are the instructions FuzzExecMatchesVP keeps from its
// input: every RV32IM register/immediate ALU op, lui and auipc.
var straightLineOps = map[rv32.Op]bool{
	rv32.OpLUI: true, rv32.OpAUIPC: true,
	rv32.OpADDI: true, rv32.OpSLTI: true, rv32.OpSLTIU: true, rv32.OpXORI: true,
	rv32.OpORI: true, rv32.OpANDI: true, rv32.OpSLLI: true, rv32.OpSRLI: true, rv32.OpSRAI: true,
	rv32.OpADD: true, rv32.OpSUB: true, rv32.OpSLL: true, rv32.OpSLT: true, rv32.OpSLTU: true,
	rv32.OpXOR: true, rv32.OpSRL: true, rv32.OpSRA: true, rv32.OpOR: true, rv32.OpAND: true,
	rv32.OpMUL: true, rv32.OpMULH: true, rv32.OpMULHSU: true, rv32.OpMULHU: true,
	rv32.OpDIV: true, rv32.OpDIVU: true, rv32.OpREM: true, rv32.OpREMU: true,
}

// straightLineImage turns fuzz bytes into a straight-line RV32IMC code
// image: the bytes are read as a stream of 16- and 32-bit encodings (by
// their low two bits), every decoded instruction outside
// straightLineOps becomes a nop of the same size, and the image ends in
// the exit sequence (a7 = 0; ecall).
func straightLineImage(data []byte) []byte {
	const maxInstrs = 256
	var img []byte
	for n := 0; n < maxInstrs && len(data) >= 2; n++ {
		size := 2
		if data[0]&3 == 3 {
			size = 4
		}
		if len(data) < size {
			break
		}
		w := uint32(binary.LittleEndian.Uint16(data))
		if size == 4 {
			w = binary.LittleEndian.Uint32(data)
		}
		data = data[size:]
		if !straightLineOps[rv32.Decode(w).Op] {
			w = 0x0001 // c.nop
			if size == 4 {
				w = 0x00000013 // addi zero, zero, 0
			}
		}
		img = binary.LittleEndian.AppendUint16(img, uint16(w))
		if size == 4 {
			img = binary.LittleEndian.AppendUint16(img, uint16(w>>16))
		}
	}
	img = binary.LittleEndian.AppendUint32(img, 0x00000893)  // addi a7, zero, 0
	return binary.LittleEndian.AppendUint32(img, 0x00000073) // ecall
}

func encodeAll(tb testing.TB, insts ...rv32.Inst) []byte {
	var out []byte
	for _, in := range insts {
		w, err := rv32.Encode(in)
		if err != nil {
			tb.Fatal(err)
		}
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// FuzzExecMatchesVP runs one straight-line program on four executors —
// the concrete VP, the concolic ISS with its block cache, the ISS on its
// uncached one-record path, and the nested interpreter — and requires
// the same 32 registers, retired instruction count and exit code. Only
// the first is independent of the ISS's handlers; the nested
// interpreter has its own micro-op semantics for every op kept here.
func FuzzExecMatchesVP(f *testing.F) {
	const a0, a1, a2, a3 = 10, 11, 12, 13
	f.Add(encodeAll(f,
		rv32.Inst{Op: rv32.OpLUI, Rd: a0, Imm: -1 << 31},
		rv32.Inst{Op: rv32.OpADDI, Rd: a1, Imm: -1},
		rv32.Inst{Op: rv32.OpDIV, Rd: a2, Rs1: a0, Rs2: a1},
		rv32.Inst{Op: rv32.OpREM, Rd: a3, Rs1: a0, Rs2: a1},
		rv32.Inst{Op: rv32.OpDIVU, Rd: 5, Rs1: a0},
		rv32.Inst{Op: rv32.OpREMU, Rd: 6, Rs1: a1},
		rv32.Inst{Op: rv32.OpMULH, Rd: 7, Rs1: a0, Rs2: a1},
		rv32.Inst{Op: rv32.OpMULHSU, Rd: 28, Rs1: a1, Rs2: a0},
		rv32.Inst{Op: rv32.OpMULHU, Rd: 29, Rs1: a0, Rs2: a1},
		rv32.Inst{Op: rv32.OpSRAI, Rd: 30, Rs1: a0, Imm: 31},
		rv32.Inst{Op: rv32.OpSLTU, Rd: 31, Rs1: a0, Rs2: a1},
		rv32.Inst{Op: rv32.OpAUIPC, Rd: 8, Imm: 0x12345 << 12},
		rv32.Inst{Op: rv32.OpADDI, Rd: 8, Rs1: 8, Imm: -0x678},
	))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		b := make([]byte, 96)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const base, size = 0x80000000, 64 << 10
		img := straightLineImage(data)

		vp := New(Config{RamBase: base, RamSize: size})
		copy(vp.Mem, img)
		vp.PC = base
		vp.Run(0)
		if !vp.Exited || vp.Err != nil {
			t.Fatalf("vp did not exit: %v", vp.Err)
		}

		for _, v := range []struct {
			name  string
			setup func(*iss.Core)
		}{
			{"iss", func(*iss.Core) {}},
			{"one-record", func(c *iss.Core) { c.ExecHook = func(*iss.Core, rv32.Inst) bool { return false } }},
			{"nested", nestedvm.Attach},
		} {
			c := iss.New(smt.NewBuilder(), iss.Config{RamBase: base, RamSize: size})
			c.LoadImage(base, img, base)
			v.setup(c)
			c.Run(0)
			if !c.Exited || c.Err != nil {
				t.Fatalf("%s did not exit: %v", v.name, c.Err)
			}
			if c.InstrCount != vp.InstrCount || c.ExitCode != vp.ExitCode {
				t.Fatalf("%s: instr %d exit %d, vp instr %d exit %d", v.name, c.InstrCount, c.ExitCode, vp.InstrCount, vp.ExitCode)
			}
			for r := range vp.Regs {
				if c.Regs[r].C != vp.Regs[r] {
					t.Fatalf("%s: x%d = %#x, vp %#x", v.name, r, c.Regs[r].C, vp.Regs[r])
				}
			}
		}
	})
}
