// Package rv32 defines the RV32IMC instruction set: opcodes, decoding of
// 32-bit and 16-bit (compressed) encodings, instruction encoding helpers
// for the assembler, and register/CSR naming.
package rv32

import "fmt"

// Op enumerates the decoded operations. Compressed instructions decode to
// their base-ISA equivalents (the C extension only adds encodings, not
// semantics).
type Op uint8

const (
	OpIllegal Op = iota

	// RV32I
	OpLUI
	OpAUIPC
	OpJAL
	OpJALR
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpLB
	OpLH
	OpLW
	OpLBU
	OpLHU
	OpSB
	OpSH
	OpSW
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND
	OpFENCE
	OpECALL
	OpEBREAK

	// Zicsr (used for trap handling)
	OpCSRRW
	OpCSRRS
	OpCSRRC
	OpCSRRWI
	OpCSRRSI
	OpCSRRCI

	// Privileged
	OpMRET
	OpWFI

	// M extension
	OpMUL
	OpMULH
	OpMULHSU
	OpMULHU
	OpDIV
	OpDIVU
	OpREM
	OpREMU

	opMax
)

// NumOps is the number of distinct decoded operations, for sizing
// per-opcode dispatch tables.
const NumOps = int(opMax)

var opNames = [...]string{
	OpIllegal: "illegal",
	OpLUI:     "lui", OpAUIPC: "auipc", OpJAL: "jal", OpJALR: "jalr",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge", OpBLTU: "bltu", OpBGEU: "bgeu",
	OpLB: "lb", OpLH: "lh", OpLW: "lw", OpLBU: "lbu", OpLHU: "lhu",
	OpSB: "sb", OpSH: "sh", OpSW: "sw",
	OpADDI: "addi", OpSLTI: "slti", OpSLTIU: "sltiu", OpXORI: "xori", OpORI: "ori", OpANDI: "andi",
	OpSLLI: "slli", OpSRLI: "srli", OpSRAI: "srai",
	OpADD: "add", OpSUB: "sub", OpSLL: "sll", OpSLT: "slt", OpSLTU: "sltu",
	OpXOR: "xor", OpSRL: "srl", OpSRA: "sra", OpOR: "or", OpAND: "and",
	OpFENCE: "fence", OpECALL: "ecall", OpEBREAK: "ebreak",
	OpCSRRW: "csrrw", OpCSRRS: "csrrs", OpCSRRC: "csrrc",
	OpCSRRWI: "csrrwi", OpCSRRSI: "csrrsi", OpCSRRCI: "csrrci",
	OpMRET: "mret", OpWFI: "wfi",
	OpMUL: "mul", OpMULH: "mulh", OpMULHSU: "mulhsu", OpMULHU: "mulhu",
	OpDIV: "div", OpDIVU: "divu", OpREM: "rem", OpREMU: "remu",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Inst is a decoded instruction. For CSR instructions Imm holds the CSR
// number and Rs2 the zimm (for the *I forms).
type Inst struct {
	Op   Op
	Rd   uint8
	Rs1  uint8
	Rs2  uint8
	Imm  int32
	Size uint8  // 2 for compressed encodings, 4 otherwise
	Raw  uint32 // the (possibly 16-bit) fetched encoding
}

func (i Inst) String() string {
	switch i.Op {
	case OpECALL, OpEBREAK, OpMRET, OpWFI, OpFENCE:
		return i.Op.String()
	case OpLUI, OpAUIPC:
		return fmt.Sprintf("%s %s, 0x%x", i.Op, RegName(i.Rd), uint32(i.Imm)>>12)
	case OpJAL:
		return fmt.Sprintf("%s %s, %d", i.Op, RegName(i.Rd), i.Imm)
	case OpJALR:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, RegName(i.Rd), i.Imm, RegName(i.Rs1))
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, RegName(i.Rs1), RegName(i.Rs2), i.Imm)
	case OpLB, OpLH, OpLW, OpLBU, OpLHU:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, RegName(i.Rd), i.Imm, RegName(i.Rs1))
	case OpSB, OpSH, OpSW:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, RegName(i.Rs2), i.Imm, RegName(i.Rs1))
	case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI, OpSLLI, OpSRLI, OpSRAI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, RegName(i.Rd), RegName(i.Rs1), i.Imm)
	case OpCSRRW, OpCSRRS, OpCSRRC:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, RegName(i.Rd), CSRName(uint16(i.Imm)), RegName(i.Rs1))
	case OpCSRRWI, OpCSRRSI, OpCSRRCI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, RegName(i.Rd), CSRName(uint16(i.Imm)), i.Rs2)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, RegName(i.Rd), RegName(i.Rs1), RegName(i.Rs2))
	}
}

// ABI register names, x0..x31.
var regNames = [32]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// RegName returns the ABI name of register r.
func RegName(r uint8) string {
	if r < 32 {
		return regNames[r]
	}
	return fmt.Sprintf("x%d", r)
}

// RegByName resolves an ABI or xN register name; returns -1 if unknown.
func RegByName(name string) int {
	for i, n := range regNames {
		if n == name {
			return i
		}
	}
	if name == "fp" {
		return 8
	}
	var n int
	if _, err := fmt.Sscanf(name, "x%d", &n); err == nil && n >= 0 && n < 32 {
		return n
	}
	return -1
}

// Machine-mode CSR numbers used by the VP.
const (
	CSRMStatus  = 0x300
	CSRMISA     = 0x301
	CSRMIE      = 0x304
	CSRMTVec    = 0x305
	CSRMScratch = 0x340
	CSRMEPC     = 0x341
	CSRMCause   = 0x342
	CSRMTVal    = 0x343
	CSRMIP      = 0x344
	CSRMCycle   = 0xb00
	CSRMCycleH  = 0xb80
	CSRMHartID  = 0xf14
)

// CSRName returns a human-readable name for the CSR number.
func CSRName(csr uint16) string {
	switch csr {
	case CSRMStatus:
		return "mstatus"
	case CSRMISA:
		return "misa"
	case CSRMIE:
		return "mie"
	case CSRMTVec:
		return "mtvec"
	case CSRMScratch:
		return "mscratch"
	case CSRMEPC:
		return "mepc"
	case CSRMCause:
		return "mcause"
	case CSRMTVal:
		return "mtval"
	case CSRMIP:
		return "mip"
	case CSRMCycle:
		return "mcycle"
	case CSRMCycleH:
		return "mcycleh"
	case CSRMHartID:
		return "mhartid"
	}
	return fmt.Sprintf("csr(0x%x)", csr)
}

// CSRByName resolves a CSR name; returns -1 if unknown.
func CSRByName(name string) int {
	for _, csr := range []uint16{CSRMStatus, CSRMISA, CSRMIE, CSRMTVec, CSRMScratch,
		CSRMEPC, CSRMCause, CSRMTVal, CSRMIP, CSRMCycle, CSRMCycleH, CSRMHartID} {
		if CSRName(csr) == name {
			return int(csr)
		}
	}
	var n int
	if _, err := fmt.Sscanf(name, "0x%x", &n); err == nil && n >= 0 && n < 4096 {
		return n
	}
	return -1
}

// Trap causes (mcause values).
const (
	CauseMisalignedFetch = 0
	CauseFetchAccess     = 1
	CauseIllegalInst     = 2
	CauseBreakpoint      = 3
	CauseMisalignedLoad  = 4
	CauseLoadAccess      = 5
	CauseMisalignedStore = 6
	CauseStoreAccess     = 7
	CauseECallM          = 11
	CauseInterruptFlag   = 0x80000000
	IrqMachineSoftware   = 3
	IrqMachineTimer      = 7
	IrqMachineExternal   = 11
)

func bits(v uint32, hi, lo uint) uint32 { return v >> lo & (1<<(hi-lo+1) - 1) }

func signExtend(v uint32, bit uint) int32 {
	shift := 31 - bit
	return int32(v<<shift) >> shift
}

// rKey selects an R-type operation by funct3 and funct7.
type rKey struct{ f3, f7 uint32 }

var rTypeOps = map[rKey]Op{
	{0, 0}: OpADD, {0, 0x20}: OpSUB, {1, 0}: OpSLL, {2, 0}: OpSLT,
	{3, 0}: OpSLTU, {4, 0}: OpXOR, {5, 0}: OpSRL, {5, 0x20}: OpSRA,
	{6, 0}: OpOR, {7, 0}: OpAND,
	{0, 1}: OpMUL, {1, 1}: OpMULH, {2, 1}: OpMULHSU, {3, 1}: OpMULHU,
	{4, 1}: OpDIV, {5, 1}: OpDIVU, {6, 1}: OpREM, {7, 1}: OpREMU,
}

// Decode decodes the instruction starting with the 32-bit little-endian
// word w (for compressed instructions only the low 16 bits are used).
func Decode(w uint32) Inst {
	if w&3 != 3 {
		return decodeCompressed(uint16(w))
	}
	opcode := w & 0x7f
	rd := uint8(bits(w, 11, 7))
	rs1 := uint8(bits(w, 19, 15))
	rs2 := uint8(bits(w, 24, 20))
	funct3 := bits(w, 14, 12)
	funct7 := bits(w, 31, 25)
	ill := Inst{Op: OpIllegal, Size: 4, Raw: w}

	switch opcode {
	case 0x37: // LUI
		return Inst{Op: OpLUI, Rd: rd, Imm: int32(w & 0xfffff000), Size: 4, Raw: w}
	case 0x17: // AUIPC
		return Inst{Op: OpAUIPC, Rd: rd, Imm: int32(w & 0xfffff000), Size: 4, Raw: w}
	case 0x6f: // JAL
		imm := bits(w, 31, 31)<<20 | bits(w, 19, 12)<<12 | bits(w, 20, 20)<<11 | bits(w, 30, 21)<<1
		return Inst{Op: OpJAL, Rd: rd, Imm: signExtend(imm, 20), Size: 4, Raw: w}
	case 0x67: // JALR
		if funct3 != 0 {
			return ill
		}
		return Inst{Op: OpJALR, Rd: rd, Rs1: rs1, Imm: signExtend(bits(w, 31, 20), 11), Size: 4, Raw: w}
	case 0x63: // branches
		imm := bits(w, 31, 31)<<12 | bits(w, 7, 7)<<11 | bits(w, 30, 25)<<5 | bits(w, 11, 8)<<1
		ops := [8]Op{OpBEQ, OpBNE, OpIllegal, OpIllegal, OpBLT, OpBGE, OpBLTU, OpBGEU}
		op := ops[funct3]
		if op == OpIllegal {
			return ill
		}
		return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: signExtend(imm, 12), Size: 4, Raw: w}
	case 0x03: // loads
		ops := [8]Op{OpLB, OpLH, OpLW, OpIllegal, OpLBU, OpLHU, OpIllegal, OpIllegal}
		op := ops[funct3]
		if op == OpIllegal {
			return ill
		}
		return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: signExtend(bits(w, 31, 20), 11), Size: 4, Raw: w}
	case 0x23: // stores
		ops := [8]Op{OpSB, OpSH, OpSW, OpIllegal, OpIllegal, OpIllegal, OpIllegal, OpIllegal}
		op := ops[funct3]
		if op == OpIllegal {
			return ill
		}
		imm := bits(w, 31, 25)<<5 | bits(w, 11, 7)
		return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: signExtend(imm, 11), Size: 4, Raw: w}
	case 0x13: // op-imm
		imm := signExtend(bits(w, 31, 20), 11)
		switch funct3 {
		case 0:
			return Inst{Op: OpADDI, Rd: rd, Rs1: rs1, Imm: imm, Size: 4, Raw: w}
		case 2:
			return Inst{Op: OpSLTI, Rd: rd, Rs1: rs1, Imm: imm, Size: 4, Raw: w}
		case 3:
			return Inst{Op: OpSLTIU, Rd: rd, Rs1: rs1, Imm: imm, Size: 4, Raw: w}
		case 4:
			return Inst{Op: OpXORI, Rd: rd, Rs1: rs1, Imm: imm, Size: 4, Raw: w}
		case 6:
			return Inst{Op: OpORI, Rd: rd, Rs1: rs1, Imm: imm, Size: 4, Raw: w}
		case 7:
			return Inst{Op: OpANDI, Rd: rd, Rs1: rs1, Imm: imm, Size: 4, Raw: w}
		case 1:
			if funct7 != 0 {
				return ill
			}
			return Inst{Op: OpSLLI, Rd: rd, Rs1: rs1, Imm: int32(rs2), Size: 4, Raw: w}
		case 5:
			switch funct7 {
			case 0:
				return Inst{Op: OpSRLI, Rd: rd, Rs1: rs1, Imm: int32(rs2), Size: 4, Raw: w}
			case 0x20:
				return Inst{Op: OpSRAI, Rd: rd, Rs1: rs1, Imm: int32(rs2), Size: 4, Raw: w}
			}
			return ill
		}
		return ill
	case 0x33: // op
		op, ok := rTypeOps[rKey{funct3, funct7}]
		if !ok {
			return ill
		}
		return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Size: 4, Raw: w}
	case 0x0f: // FENCE (and FENCE.I) — treated as no-ops by the VP
		return Inst{Op: OpFENCE, Size: 4, Raw: w}
	case 0x73: // SYSTEM
		csr := bits(w, 31, 20)
		switch funct3 {
		case 0:
			switch w {
			case 0x00000073:
				return Inst{Op: OpECALL, Size: 4, Raw: w}
			case 0x00100073:
				return Inst{Op: OpEBREAK, Size: 4, Raw: w}
			case 0x30200073:
				return Inst{Op: OpMRET, Size: 4, Raw: w}
			case 0x10500073:
				return Inst{Op: OpWFI, Size: 4, Raw: w}
			}
			return ill
		case 1:
			return Inst{Op: OpCSRRW, Rd: rd, Rs1: rs1, Imm: int32(csr), Size: 4, Raw: w}
		case 2:
			return Inst{Op: OpCSRRS, Rd: rd, Rs1: rs1, Imm: int32(csr), Size: 4, Raw: w}
		case 3:
			return Inst{Op: OpCSRRC, Rd: rd, Rs1: rs1, Imm: int32(csr), Size: 4, Raw: w}
		case 5:
			return Inst{Op: OpCSRRWI, Rd: rd, Rs2: rs1, Imm: int32(csr), Size: 4, Raw: w}
		case 6:
			return Inst{Op: OpCSRRSI, Rd: rd, Rs2: rs1, Imm: int32(csr), Size: 4, Raw: w}
		case 7:
			return Inst{Op: OpCSRRCI, Rd: rd, Rs2: rs1, Imm: int32(csr), Size: 4, Raw: w}
		}
		return ill
	}
	return ill
}

// decodeCompressed expands a 16-bit C-extension encoding into its base
// instruction. Size is 2 so the PC advances correctly.
func decodeCompressed(h uint16) Inst {
	w := uint32(h)
	ill := Inst{Op: OpIllegal, Size: 2, Raw: w}
	op := w & 3
	funct3 := bits(w, 15, 13)
	// Registers in the "prime" (3-bit) encodings map to x8..x15.
	rdP := uint8(bits(w, 4, 2)) + 8
	rs1P := uint8(bits(w, 9, 7)) + 8

	switch op {
	case 0:
		switch funct3 {
		case 0: // C.ADDI4SPN: addi rd', sp, nzuimm
			imm := bits(w, 10, 7)<<6 | bits(w, 12, 11)<<4 | bits(w, 5, 5)<<3 | bits(w, 6, 6)<<2
			if imm == 0 {
				return ill
			}
			return Inst{Op: OpADDI, Rd: rdP, Rs1: 2, Imm: int32(imm), Size: 2, Raw: w}
		case 2: // C.LW
			imm := bits(w, 5, 5)<<6 | bits(w, 12, 10)<<3 | bits(w, 6, 6)<<2
			return Inst{Op: OpLW, Rd: rdP, Rs1: rs1P, Imm: int32(imm), Size: 2, Raw: w}
		case 6: // C.SW
			imm := bits(w, 5, 5)<<6 | bits(w, 12, 10)<<3 | bits(w, 6, 6)<<2
			return Inst{Op: OpSW, Rs1: rs1P, Rs2: rdP, Imm: int32(imm), Size: 2, Raw: w}
		}
		return ill
	case 1:
		switch funct3 {
		case 0: // C.ADDI (C.NOP when rd=0)
			rd := uint8(bits(w, 11, 7))
			imm := signExtend(bits(w, 12, 12)<<5|bits(w, 6, 2), 5)
			return Inst{Op: OpADDI, Rd: rd, Rs1: rd, Imm: imm, Size: 2, Raw: w}
		case 1: // C.JAL (RV32)
			imm := cjImm(w)
			return Inst{Op: OpJAL, Rd: 1, Imm: imm, Size: 2, Raw: w}
		case 2: // C.LI
			rd := uint8(bits(w, 11, 7))
			imm := signExtend(bits(w, 12, 12)<<5|bits(w, 6, 2), 5)
			return Inst{Op: OpADDI, Rd: rd, Rs1: 0, Imm: imm, Size: 2, Raw: w}
		case 3:
			rd := uint8(bits(w, 11, 7))
			if rd == 2 { // C.ADDI16SP
				imm := signExtend(bits(w, 12, 12)<<9|bits(w, 4, 3)<<7|bits(w, 5, 5)<<6|bits(w, 2, 2)<<5|bits(w, 6, 6)<<4, 9)
				if imm == 0 {
					return ill
				}
				return Inst{Op: OpADDI, Rd: 2, Rs1: 2, Imm: imm, Size: 2, Raw: w}
			}
			// C.LUI
			imm := signExtend(bits(w, 12, 12)<<17|bits(w, 6, 2)<<12, 17)
			if imm == 0 {
				return ill
			}
			return Inst{Op: OpLUI, Rd: rd, Imm: imm, Size: 2, Raw: w}
		case 4:
			f2 := bits(w, 11, 10)
			switch f2 {
			case 0: // C.SRLI (shamt[5] set is reserved on RV32)
				if bits(w, 12, 12) != 0 {
					return ill
				}
				return Inst{Op: OpSRLI, Rd: rs1P, Rs1: rs1P, Imm: int32(bits(w, 6, 2)), Size: 2, Raw: w}
			case 1: // C.SRAI (likewise)
				if bits(w, 12, 12) != 0 {
					return ill
				}
				return Inst{Op: OpSRAI, Rd: rs1P, Rs1: rs1P, Imm: int32(bits(w, 6, 2)), Size: 2, Raw: w}
			case 2: // C.ANDI
				imm := signExtend(bits(w, 12, 12)<<5|bits(w, 6, 2), 5)
				return Inst{Op: OpANDI, Rd: rs1P, Rs1: rs1P, Imm: imm, Size: 2, Raw: w}
			case 3:
				ops := [4]Op{OpSUB, OpXOR, OpOR, OpAND}
				if bits(w, 12, 12) != 0 {
					return ill
				}
				return Inst{Op: ops[bits(w, 6, 5)], Rd: rs1P, Rs1: rs1P, Rs2: rdP, Size: 2, Raw: w}
			}
			return ill
		case 5: // C.J
			return Inst{Op: OpJAL, Rd: 0, Imm: cjImm(w), Size: 2, Raw: w}
		case 6: // C.BEQZ
			return Inst{Op: OpBEQ, Rs1: rs1P, Rs2: 0, Imm: cbImm(w), Size: 2, Raw: w}
		case 7: // C.BNEZ
			return Inst{Op: OpBNE, Rs1: rs1P, Rs2: 0, Imm: cbImm(w), Size: 2, Raw: w}
		}
		return ill
	case 2:
		rd := uint8(bits(w, 11, 7))
		switch funct3 {
		case 0: // C.SLLI (shamt[5] set is reserved on RV32)
			if bits(w, 12, 12) != 0 {
				return ill
			}
			return Inst{Op: OpSLLI, Rd: rd, Rs1: rd, Imm: int32(bits(w, 6, 2)), Size: 2, Raw: w}
		case 2: // C.LWSP
			if rd == 0 {
				return ill
			}
			imm := bits(w, 3, 2)<<6 | bits(w, 12, 12)<<5 | bits(w, 6, 4)<<2
			return Inst{Op: OpLW, Rd: rd, Rs1: 2, Imm: int32(imm), Size: 2, Raw: w}
		case 4:
			rs2 := uint8(bits(w, 6, 2))
			if bits(w, 12, 12) == 0 {
				if rs2 == 0 { // C.JR
					if rd == 0 {
						return ill
					}
					return Inst{Op: OpJALR, Rd: 0, Rs1: rd, Size: 2, Raw: w}
				}
				// C.MV
				return Inst{Op: OpADD, Rd: rd, Rs1: 0, Rs2: rs2, Size: 2, Raw: w}
			}
			if rs2 == 0 {
				if rd == 0 { // C.EBREAK
					return Inst{Op: OpEBREAK, Size: 2, Raw: w}
				}
				// C.JALR
				return Inst{Op: OpJALR, Rd: 1, Rs1: rd, Size: 2, Raw: w}
			}
			// C.ADD
			return Inst{Op: OpADD, Rd: rd, Rs1: rd, Rs2: rs2, Size: 2, Raw: w}
		case 6: // C.SWSP
			imm := bits(w, 8, 7)<<6 | bits(w, 12, 9)<<2
			return Inst{Op: OpSW, Rs1: 2, Rs2: uint8(bits(w, 6, 2)), Imm: int32(imm), Size: 2, Raw: w}
		}
		return ill
	}
	return ill
}

// cjImm decodes the C.J/C.JAL immediate.
func cjImm(w uint32) int32 {
	imm := bits(w, 12, 12)<<11 | bits(w, 8, 8)<<10 | bits(w, 10, 9)<<8 |
		bits(w, 6, 6)<<7 | bits(w, 7, 7)<<6 | bits(w, 2, 2)<<5 |
		bits(w, 11, 11)<<4 | bits(w, 5, 3)<<1
	return signExtend(imm, 11)
}

// cbImm decodes the C.BEQZ/C.BNEZ immediate.
func cbImm(w uint32) int32 {
	imm := bits(w, 12, 12)<<8 | bits(w, 6, 5)<<6 | bits(w, 2, 2)<<5 |
		bits(w, 11, 10)<<3 | bits(w, 4, 3)<<1
	return signExtend(imm, 8)
}
