package iss

import (
	"testing"

	"rvcte/internal/asm"
	"rvcte/internal/smt"
)

// TestNotifyResetsPending: re-notifying a function replaces its pending
// notification (paper §3.2: "In case the function already has a pending
// notification, it will be reset").
func TestNotifyResetsPending(t *testing.T) {
	c := run(t, `
	_start:
		la a0, fn
		li a1, 50
		li a7, 4
		ecall            # notify(fn, 50)
		la a0, fn
		li a1, 2000
		li a7, 4
		ecall            # re-notify(fn, 2000): resets the first one
	spin:
		la t0, fired
		lw t1, 0(t0)
		beqz t1, spin
		li a7, 6
		ecall            # get_cycles -> a0
	`+exitSeq+`
	fn:
		la t0, fired
		li t1, 1
		sw t1, 0(t0)
		li a7, 5
		ecall            # CTE_return
	.data
	fired: .word 0
	`)
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	// The callback must fire near cycle 2000, not cycle 50.
	if c.ExitCode < 1900 {
		t.Errorf("notification was not reset: fired at cycle %d", c.ExitCode)
	}
}

// TestCancelNotify: a cancelled notification never fires.
func TestCancelNotify(t *testing.T) {
	c := run(t, `
	_start:
		la a0, fn
		li a1, 100
		li a7, 4
		ecall            # notify(fn, 100)
		la a0, fn
		li a7, 11
		ecall            # cancel_notify(fn)
		li t2, 0
	loop:
		addi t2, t2, 1
		li t3, 2000
		bltu t2, t3, loop
		la t0, fired
		lw a0, 0(t0)     # must still be 0
	`+exitSeq+`
	fn:
		la t0, fired
		li t1, 1
		sw t1, 0(t0)
		li a7, 5
		ecall
	.data
	fired: .word 0
	`)
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	if c.ExitCode != 0 {
		t.Error("cancelled notification fired anyway")
	}
}

// TestIsSymbolic: the introspection call distinguishes concrete from
// symbolic values.
func TestIsSymbolic(t *testing.T) {
	c := run(t, `
	_start:
		li a0, 42
		li a7, 12
		ecall            # is_symbolic(42) -> 0
		mv s0, a0
		la a0, x
		li a1, 4
		la a2, name
		li a7, 1
		ecall            # make_symbolic(&x)
		la a0, x
		lw a0, 0(a0)
		li a7, 12
		ecall            # is_symbolic(x) -> 1
		slli a0, a0, 1
		or a0, a0, s0    # result = symbolic<<1 | concrete
	`+exitSeq+`
	.data
	x: .word 0
	name: .asciz "x"
	`)
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	if c.ExitCode != 2 {
		t.Errorf("is_symbolic results: %#b want 0b10", c.ExitCode)
	}
}

// TestNestedPeripheralAccess: a peripheral's transport function performs
// a memory-mapped access to a second peripheral — the context stack must
// nest (paper §3.2.2: "Using a stack to save the execution context
// allows peripherals to access other peripherals memory").
func TestNestedPeripheralAccess(t *testing.T) {
	src := `
	_start:
		li a1, 0x10000000
		lw a0, 0(a1)       # read outer -> returns inner+1
	` + exitSeq + `
	.globl outer_transport
	outer_transport:
		# reads the inner peripheral's register via MMIO (nested switch)
		li t0, 0x10010000
		lw t1, 0(t0)
		addi t1, t1, 1
		sw t1, 0(a1)       # store result into the transaction buffer
		li a7, 5
		ecall
	.globl inner_transport
	inner_transport:
		li t1, 41
		sw t1, 0(a1)
		li a7, 5
		ecall
	.data
	.globl outer_buf
	outer_buf: .word 0
	.globl inner_buf
	inner_buf: .word 0
	`
	c := buildCore(t, src)
	// Resolve symbols by assembling again (buildCore hides the image);
	// simpler: rebuild with the helper below.
	img := mustImage(t, src)
	c.AddPeripheral(Peripheral{Name: "outer", Base: 0x10000000, Size: 0x1000,
		Transport: img.Symbols["outer_transport"], Buf: img.Symbols["outer_buf"]})
	c.AddPeripheral(Peripheral{Name: "inner", Base: 0x10010000, Size: 0x1000,
		Transport: img.Symbols["inner_transport"], Buf: img.Symbols["inner_buf"]})
	c.Run(0)
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	if c.ExitCode != 42 {
		t.Errorf("nested transport: %d want 42", c.ExitCode)
	}
}

// TestPeripheralStackIsolation: with a dedicated peripheral stack
// configured, peripheral execution must not descend below the
// interrupted software's stack pointer.
func TestPeriphStackUsed(t *testing.T) {
	src := `
	_start:
		li a1, 0x10000000
		lw a0, 0(a1)
	` + exitSeq + `
	.globl p_transport
	p_transport:
		# store sp into the transaction buffer so the test can see it
		sw sp, 0(a1)
		li a7, 5
		ecall
	.data
	.globl p_buf
	p_buf: .word 0
	`
	img := mustImage(t, src)
	b := smt.NewBuilder()
	c := New(b, Config{RamBase: ramBase, RamSize: ramSize, MaxInstr: 100000,
		StackTop: ramBase + 0x8000, PeriphStackTop: ramBase + 0x10000})
	c.LoadImage(img.Origin, img.Bytes, img.Entry())
	c.AddPeripheral(Peripheral{Name: "p", Base: 0x10000000, Size: 0x1000,
		Transport: img.Symbols["p_transport"], Buf: img.Symbols["p_buf"]})
	c.Run(0)
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	if c.ExitCode != ramBase+0x10000 {
		t.Errorf("peripheral sp %#x want %#x", c.ExitCode, ramBase+0x10000)
	}
}

// TestCloneCopiesNotificationsAndZones: cloned cores carry pending
// notifications and protected zones independently.
func TestCloneCopiesNotificationsAndZones(t *testing.T) {
	base := buildCore(t, `
	_start:
		li a0, 0x80001000
		li a1, 8
		li a2, 16
		li a7, 8
		ecall            # register zone
		li a0, 0
	`+exitSeq)
	base.Run(0)
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	c1 := base.Clone()
	c2 := base.Clone()
	// Freeing in one clone must not affect the other.
	if len(c1.zones) != 2 || len(c2.zones) != 2 {
		t.Fatalf("zones not cloned: %d %d", len(c1.zones), len(c2.zones))
	}
	c1.zones = c1.zones[:0]
	if len(c2.zones) != 2 {
		t.Error("zone slice shared between clones")
	}
}

// TestClonePeripheralsAllocFree: Clone shares the read-only peripheral
// table, so a frozen core with software-model peripherals clones with
// exactly the allocations of one with none, and a peripheral added to
// one clone stays out of its siblings.
func TestClonePeripheralsAllocFree(t *testing.T) {
	allocs := func(n int) float64 {
		c := detTestCore()
		for i := range n {
			c.AddPeripheral(Peripheral{Name: "p", Base: 0x10000000 + uint32(i)<<16, Size: 0x100})
		}
		c.Freeze()
		return testing.AllocsPerRun(50, func() { c.Clone() })
	}
	if none, two := allocs(0), allocs(2); two != none {
		t.Errorf("Clone allocations: %v with two peripherals, %v with none", two, none)
	}

	base := detTestCore()
	for range 3 { // len 3, cap 4: a shared backing array has a free slot
		base.AddPeripheral(Peripheral{Name: "p", Base: 0x10000000, Size: 0x100})
	}
	c1, c2 := base.Clone(), base.Clone()
	c1.AddPeripheral(Peripheral{Name: "one"})
	c2.AddPeripheral(Peripheral{Name: "two"})
	if c1.Peripherals[3].Name != "one" || len(base.Peripherals) != 3 {
		t.Errorf("AddPeripheral on a clone leaked: c1[3]=%q, base has %d", c1.Peripherals[3].Name, len(base.Peripherals))
	}
}

// mustImage assembles a test source (duplicating buildCore's assembly
// step where the Image is needed for symbol lookup).
func mustImage(t *testing.T, src string) *asm.Image {
	t.Helper()
	img, err := asm.Assemble(src, ramBase)
	if err != nil {
		t.Fatal(err)
	}
	return img
}
