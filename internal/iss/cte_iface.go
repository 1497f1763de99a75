package iss

import (
	"fmt"

	"rvcte/internal/concolic"
)

// CTE-interface function codes. Guest software (and the peripheral
// software models) invoke these via `ecall` with the code in a7 and
// arguments in a0..a2, mirroring the paper's CTE SW-library.
const (
	SysExit            = 0  // exit(code)
	SysMakeSymbolic    = 1  // CTE_make_symbolic(ptr, size, name)
	SysAssume          = 2  // CTE_assume(cond)
	SysAssert          = 3  // CTE_assert(cond)
	SysNotify          = 4  // CTE_notify(fn, delay_cycles)
	SysReturn          = 5  // CTE_return()
	SysGetCycles       = 6  // CTE_get_cycles() -> a0 (lo), a1 (hi)
	SysTriggerIRQ      = 7  // CTE_trigger_irq(line, level)
	SysRegisterProtect = 8  // CTE_register_protected_memory(addr, size, zone)
	SysFreeProtect     = 9  // CTE_free_protected_memory(addr)
	SysPutChar         = 10 // putchar(ch)
	SysCancelNotify    = 11 // CTE_cancel_notify(fn)
	SysIsSymbolic      = 12 // CTE_is_symbolic(value) -> 0/1
	SysCanaryArm       = 13 // CTE_canary_arm(addr, size)
	SysCanaryDisarm    = 14 // CTE_canary_disarm(addr)
)

// ecall dispatches a CTE-interface call.
func (c *Core) ecall() {
	code := c.reg(17).C // a7
	a0 := c.reg(10)
	a1 := c.reg(11)
	a2 := c.reg(12)

	switch code {
	case SysExit:
		c.Exited = true
		c.ExitCode = a0.C

	case SysMakeSymbolic:
		ptr := c.concretize(a0, "make_symbolic ptr")
		size := c.concretize(a1, "make_symbolic size")
		namePtr := c.concretize(a2, "make_symbolic name")
		name, ok := c.Mem.ReadCString(namePtr)
		if !ok {
			// No NUL terminator within the scan bound: almost certainly a
			// wild name pointer. Fail loudly instead of minting variables
			// under a 4 KiB garbage name (which would also silently change
			// identity if the garbage differed between runs).
			c.fail(ErrIllegalLoad, namePtr,
				fmt.Sprintf("make_symbolic name not NUL-terminated within %d bytes", concolic.CStringMax))
			return
		}
		if name == "" {
			name = fmt.Sprintf("anon@%#x", ptr)
		}
		c.makeSymbolic(ptr, size, name)

	case SysAssume:
		c.assumeVal(a0)

	case SysAssert:
		c.assertVal(a0)

	case SysNotify:
		fn := c.concretize(a0, "notify fn")
		// Symbolic delays are concretized (paper §3.2: "Currently, we
		// only support concrete delay arguments"). With SymbolicTimes
		// enabled (future work §5.2), alternative firing times are
		// emitted as trace conditions first, so exploration can reorder
		// notifications against the software and expose timing bugs.
		// Small steps matter: race windows are a few instructions wide.
		if a1.Sym != nil && c.SymbolicTimes {
			site := c.siteCount
			c.siteCount++
			if site >= c.Bound {
				// Exact alternative firing times: races live in windows
				// a few cycles wide, so candidate delays are pinned
				// with equalities (dense nearby, geometric farther out).
				for _, step := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 20, 24, 32, 48, 64, 96, 128, 256, 512, 1024} {
					target := uint64(a1.C) + step
					if target > 0xffffffff {
						break
					}
					cond := c.B.Eq(a1.Sym, c.B.Const(32, target))
					if cond.IsFalse() {
						continue
					}
					c.emitTC(TraceCond{EPCLen: len(c.EPC), Cond: cond, SiteIdx: site})
				}
			}
		}
		delay := c.concretize(a1, "notify delay")
		// A pending notification for the same function is reset.
		for i := range c.notifications {
			if c.notifications[i].Fn == fn {
				c.notifications[i].Due = c.Cycles + uint64(delay)
				c.reschedule()
				return
			}
		}
		c.notifications = append(c.notifications, notification{Fn: fn, Due: c.Cycles + uint64(delay)})
		c.reschedule()

	case SysReturn:
		c.cteReturn()

	case SysGetCycles:
		c.setReg(10, concolic.Concrete(uint32(c.Cycles)))
		c.setReg(11, concolic.Concrete(uint32(c.Cycles>>32)))

	case SysTriggerIRQ:
		line := c.concretize(a0, "irq line") & 31
		level := c.concretize(a1, "irq level")
		if level != 0 {
			c.MIP |= 1 << line
		} else {
			c.MIP &^= 1 << line
		}

	case SysRegisterProtect:
		addr := c.concretize(a0, "protect addr")
		// Allocation sizes are the one concretization where exploring
		// alternative concrete values pays off (paper §2.2: "trace
		// conditions can be emitted to generate different concrete
		// values N"): emit a TC asking for a strictly larger size so
		// overflow-triggering allocations are reachable.
		if a1.Sym != nil && !c.NoConcretizationTCs {
			// Emit a geometric ladder of alternative-size trace
			// conditions (size > N, > N+7, > N+31, ...), so a single
			// generation covers exponentially larger allocations — the
			// "minimum and maximum possible values would be good
			// candidates" optimization of §2.2.
			site := c.siteCount
			c.siteCount++
			if site >= c.Bound {
				for _, step := range []uint64{0, 7, 31, 127, 511, 4095, 65535} {
					target := uint64(a1.C) + step
					if target > 0xffffffff {
						break
					}
					cond := c.B.Ugt(a1.Sym, c.B.Const(32, target))
					if cond.IsFalse() {
						break
					}
					c.emitTC(TraceCond{EPCLen: len(c.EPC), Cond: cond, SiteIdx: site})
				}
			}
		}
		size := c.concretize(a1, "protect size")
		zone := c.concretize(a2, "protect zone")
		c.zones = append(c.zones,
			Zone{Start: addr - zone, Size: zone, Block: addr},
			Zone{Start: addr + size, Size: zone, Block: addr})
		c.detectProtect(addr, size)

	case SysFreeProtect:
		addr := c.concretize(a0, "free addr")
		// Derive the block size from its post-guard zone (Start ==
		// block+size) before removal, then strip both guard zones and
		// let the detectors classify the event: heap-guard raises
		// free(NULL)/double-free/bad-free, heap-uaf quarantines the
		// freed range.
		var size uint32
		removed := 0
		kept := c.zones[:0]
		for _, z := range c.zones {
			if z.Block == addr && addr != 0 {
				if z.Start > addr {
					size = z.Start - addr
				}
				removed++
				continue
			}
			kept = append(kept, z)
		}
		c.zones = kept
		if err := c.detectUnprotect(addr, size, removed); err != nil && c.Err == nil {
			c.Err = err
		}

	case SysPutChar:
		if c.CaptureForks && a0.Sym != nil && !c.ConcreteOnly {
			// Shadow symbolic output bytes so a forked path can re-evaluate
			// the prefix's output under its new model (the concrete byte
			// printed here depends on the input assignment).
			for len(c.outSym) < len(c.Output) {
				c.outSym = append(c.outSym, nil)
			}
			c.outSym = append(c.outSym, a0.Sym)
		}
		c.Output = append(c.Output, byte(a0.C))

	case SysCancelNotify:
		fn := c.concretize(a0, "cancel fn")
		for i := range c.notifications {
			if c.notifications[i].Fn == fn {
				c.notifications = append(c.notifications[:i], c.notifications[i+1:]...)
				c.reschedule()
				return
			}
		}

	case SysIsSymbolic:
		if a0.Sym != nil {
			c.setReg(10, concolic.Concrete(1))
		} else {
			c.setReg(10, concolic.Concrete(0))
		}

	case SysCanaryArm:
		addr := c.concretize(a0, "canary addr")
		size := c.concretize(a1, "canary size")
		c.armCanary(addr, size)

	case SysCanaryDisarm:
		addr := c.concretize(a0, "canary addr")
		c.disarmCanary(addr)

	default:
		c.fail(ErrIllegalInstr, c.PC, fmt.Sprintf("unknown ecall %d", code))
	}
}

// assumeVal implements CTE_assume (§2.2): when the concrete condition
// holds, the path continues under the symbolic assumption; otherwise a
// TC targeting the assumption is emitted and the path is pruned.
func (c *Core) assumeVal(v concolic.Value) {
	conc := v.C != 0
	if v.Sym == nil {
		if !conc {
			c.fail(ErrAssumeFail, c.PC, "concrete assume(false)")
		}
		return
	}
	x := c.B.Ne(v.Sym, c.B.Const(32, 0))
	site := c.siteCount
	c.siteCount++
	if conc {
		if !x.IsTrue() {
			c.EPC = append(c.EPC, x)
		}
	} else {
		if site >= c.Bound && !x.IsFalse() {
			c.emitTC(TraceCond{EPCLen: len(c.EPC), Cond: x, SiteIdx: site})
		}
		c.fail(ErrAssumeFail, c.PC, "")
	}
}

// assertVal implements CTE_assert (§2.2): a concretely-true symbolic
// assertion emits a violation-seeking TC and continues; a false one
// fails the path.
func (c *Core) assertVal(v concolic.Value) {
	conc := v.C != 0
	if v.Sym == nil {
		if !conc {
			c.fail(ErrAssertFail, c.PC, "concrete assertion failed")
		}
		return
	}
	x := c.B.Ne(v.Sym, c.B.Const(32, 0))
	site := c.siteCount
	c.siteCount++
	if conc {
		nx := c.B.Not(x)
		if site >= c.Bound && !nx.IsFalse() {
			c.emitTC(TraceCond{EPCLen: len(c.EPC), Cond: nx, SiteIdx: site})
		}
		if !x.IsTrue() {
			c.EPC = append(c.EPC, x)
		}
	} else {
		c.fail(ErrAssertFail, c.PC, "symbolic assertion violated")
	}
}

// makeSymbolic overwrites size bytes at ptr with fresh symbolic bytes.
// Concrete values come from the current input assignment (or zero). Each
// call mints a new generation of variables ("d#0", "d#1", ...) so that a
// peripheral regenerating sensor data in a loop gets independent symbols.
func (c *Core) makeSymbolic(ptr, size uint32, name string) {
	if c.ConcreteOnly {
		// Concrete fast path (fuzzing): no variables are minted and no
		// shadow bytes stored — the input stream supplies the bytes.
		for i := uint32(0); i < size; i++ {
			c.Mem.StoreByte(ptr+i, c.nextFuzzByte(), nil)
		}
		return
	}
	gen := c.symCounters[name]
	c.symCounters[name] = gen + 1
	full := fmt.Sprintf("%s#%d", name, gen)
	if gen == 0 {
		// The first generation keeps the bare name for readability.
		full = name
	}
	for i := uint32(0); i < size; i++ {
		v := c.B.Var(8, fmt.Sprintf("%s[%d]", full, i))
		// The variable id is stable across runs (names are deterministic
		// along a path), so the input assignment applies directly.
		id := int(v.Val)
		var cb byte
		if c.FuzzInput != nil {
			// Concolic replay of a fuzz input: the stream supplies the
			// byte, the assignment records it, and the consumption order
			// is kept so a solver model maps back onto stream offsets.
			cb = c.nextFuzzByte()
			c.Input[id] = uint64(cb)
			c.SymOrder = append(c.SymOrder, id)
		} else {
			cb = byte(c.Input[id])
		}
		c.Mem.StoreByte(ptr+i, cb, v)
	}
}
