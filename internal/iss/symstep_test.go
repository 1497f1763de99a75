package iss

import (
	"testing"

	"rvcte/internal/rv32"
)

// TestDecodedAt: the symbolic-step decode hook must return, through
// the block cache, the instruction the one-record path fetches, and
// refuse the PCs that path faults on.
func TestDecodedAt(t *testing.T) {
	c := buildCore(t, `
	_start:
		li a0, 6
		addi a0, a0, 1
	`+exitSeq)

	for pc := uint32(ramBase); pc < ramBase+16; pc += 2 {
		inst, ok := c.DecodedAt(pc)
		ref, kind, _ := c.fetchAt(pc)
		if ok != (kind == ErrNone) || inst != ref {
			t.Fatalf("DecodedAt(%#x) = %+v/%v, one-record fetch gave %+v/%v", pc, inst, ok, ref, kind)
		}
	}
	if inst, _ := c.DecodedAt(ramBase); inst.Op == rv32.OpIllegal {
		t.Fatal("DecodedAt(entry) returned no instruction")
	}

	// DecodedAt must not disturb the core: PC and Err stay put.
	if c.PC != ramBase || c.Err != nil {
		t.Fatalf("DecodedAt moved the core: pc=%#x err=%v", c.PC, c.Err)
	}

	for _, tc := range []struct {
		name string
		pc   uint32
		kind ErrKind
	}{
		{"misaligned", ramBase + 1, ErrIllegalJump},
		{"outside RAM", ramBase + ramSize, ErrIllegalJump},
		{"undecodable word", ramBase + 0x100, ErrIllegalInstr},
	} {
		if _, ok := c.DecodedAt(tc.pc); ok {
			t.Errorf("%s: DecodedAt succeeded", tc.name)
		}
		if _, got, _ := c.fetchAt(tc.pc); got != tc.kind {
			t.Errorf("%s: fetchAt = %v, want %v", tc.name, got, tc.kind)
		}
	}
}

// TestSymstepSnapshots: the auxiliary-state accessors return copies
// that do not alias the core's private state.
func TestSymstepSnapshots(t *testing.T) {
	c := run(t, `
	_start:
		la a0, buf
		li a1, 2
		la a2, name
		li a7, 1
		ecall            # make_symbolic(buf, 2, "s")
		la a0, buf
		li a1, 2
		li a2, 77
		li a7, 8
		ecall            # register_protect(buf, 2, 77)
		li a0, 0
	`+exitSeq+`
	.data
	buf: .space 4
	name: .asciz "s"
	`)
	if c.Err != nil {
		t.Fatalf("guest failed: %v", c.Err)
	}
	zones := c.ZonesSnapshot()
	if len(zones) != 2 {
		t.Fatalf("zones = %v, want the 2 guard zones of one protect", zones)
	}
	zones[0] = Zone{}
	if z := c.ZonesSnapshot(); z[0] == (Zone{}) {
		t.Error("ZonesSnapshot aliases the core's zones")
	}
	gens := c.SymCounterSnapshot()
	if gens["s"] != 1 {
		t.Fatalf("symGen = %v, want s:1 after one make_symbolic", gens)
	}
	gens["s"] = 99
	if c.SymCounterSnapshot()["s"] != 1 {
		t.Error("SymCounterSnapshot aliases the core's counters")
	}
	if c.PendingHostWork() != 0 {
		t.Errorf("PendingHostWork = %d on a peripheral-free core", c.PendingHostWork())
	}
	if !c.InRAM(ramBase, 4) || c.InRAM(ramBase+ramSize-1, 2) {
		t.Error("InRAM bounds are off")
	}
}
