package iss

import "fmt"

// Bug detectors. The paper's runtime check is the heap guard-zone check
// of Fig. 5 (§4.2.2); the stateful session guest adds three more:
// use-after-free, stack canary and IRQ re-entrancy. The four kinds are
// fixed. A core carries the ordered list of attached kinds — iss.New
// attaches heap-guard alone; engines and the CLI pick richer sets by
// name (-detectors). Each ISS event (checked data access, heap protect
// and unprotect, canary arm and disarm, trap entry and mret) calls one
// Core method below, which runs the checks of the attached kinds. Their
// per-path state (UAF quarantine, armed canaries, active IRQ causes)
// lives in plain Core slices that Clone copies, so it forks with the
// path.

// Detector kinds, as named by -detectors and Report.Detectors.
const (
	KindHeapGuard     = "heap-guard"
	KindHeapUAF       = "heap-uaf"
	KindStackCanary   = "stack-canary"
	KindIRQReentrancy = "irq-reentrancy"
)

// detKind indexes detKindNames.
type detKind uint8

const (
	detHeapGuard detKind = iota
	detHeapUAF
	detIRQReentrancy
	detStackCanary
)

// detKindNames is the sorted table of kinds; "all" expands to it in
// this order.
var detKindNames = [...]string{KindHeapGuard, KindHeapUAF, KindIRQReentrancy, KindStackCanary}

// defaultDets is the set iss.New attaches: the paper's heap guard-zone
// overflow check. Richer sets are opt-in.
var defaultDets = []detKind{detHeapGuard}

// parseDetectors resolves kind names; "all" expands to every kind.
func parseDetectors(names []string) ([]detKind, error) {
	var ks []detKind
	for _, n := range names {
		if n == "all" {
			for k := range detKindNames {
				ks = append(ks, detKind(k))
			}
			continue
		}
		k := 0
		for k < len(detKindNames) && detKindNames[k] != n {
			k++
		}
		if k == len(detKindNames) {
			return nil, fmt.Errorf("iss: unknown detector %q (known: %v)", n, detKindNames)
		}
		ks = append(ks, detKind(k))
	}
	return ks, nil
}

// CheckDetectors validates a detector name list (kinds or "all") as
// AttachDetectorSet would, without a core.
func CheckDetectors(names []string) error {
	_, err := parseDetectors(names)
	return err
}

// AttachDetectorSet replaces the attached detector set and clears the
// detector state. The name "all" expands to every kind; nil keeps the
// current set; an unknown name fails and leaves the set unchanged. The
// list order is the check order: an access that hits two checks
// reports the kind listed first.
func (c *Core) AttachDetectorSet(names []string) error {
	if names == nil {
		return nil
	}
	ks, err := parseDetectors(names)
	if err != nil {
		return err
	}
	// Clones share c.dets, so it is replaced, never mutated.
	c.dets = ks
	c.freed, c.armed, c.irqActive = nil, nil, nil
	return nil
}

// DetectorKinds lists the kinds attached to this core, in check order.
func (c *Core) DetectorKinds() []string {
	kinds := make([]string, len(c.dets))
	for i, k := range c.dets {
		kinds[i] = detKindNames[k]
	}
	return kinds
}

func (c *Core) hasDetector(k detKind) bool {
	for _, d := range c.dets {
		if d == k {
			return true
		}
	}
	return false
}

// quarantineCap bounds the heap-uaf freed-range ring; old entries fall
// off, so very long-lived sessions trade detection of ancient frees for
// bounded clone cost.
const quarantineCap = 64

// addrRange is the address range [start, end): a heap block in the
// heap-uaf quarantine, or a region armed by CTE_canary_arm.
type addrRange struct{ start, end uint32 }

// detectAccess runs the access checks of the attached kinds in attach
// order on a data access that passed the null and alignment checks:
//   - heap-guard: the access touches a protected zone around a heap
//     block (Fig. 5);
//   - heap-uaf: it touches a freed block still in the quarantine;
//   - stack-canary: it writes into an armed region (reads pass, so the
//     guest may verify the canary itself).
func (c *Core) detectAccess(addr uint32, size int, isWrite bool) *SimError {
	end := addr + uint32(size)
	for _, k := range c.dets {
		switch k {
		case detHeapGuard:
			for i := range c.zones {
				z := &c.zones[i]
				if addr < z.Start+z.Size && end > z.Start {
					kind := ErrProtectedRead
					if isWrite {
						kind = ErrProtectedWrite
					}
					return &SimError{Kind: kind, PC: c.PC, Addr: addr,
						Msg: fmt.Sprintf("protected zone of block %#x", z.Block)}
				}
			}
		case detHeapUAF:
			for _, r := range c.freed {
				if addr < r.end && end > r.start {
					return &SimError{Kind: ErrUseAfterFree, PC: c.PC, Addr: addr,
						Msg: fmt.Sprintf("freed block [%#x,%#x)", r.start, r.end)}
				}
			}
		case detStackCanary:
			if !isWrite {
				continue
			}
			for _, r := range c.armed {
				if addr < r.end && end > r.start {
					return &SimError{Kind: ErrStackSmash, PC: c.PC, Addr: addr,
						Msg: fmt.Sprintf("write into armed canary [%#x,%#x)", r.start, r.end)}
				}
			}
		}
	}
	return nil
}

// detectProtect sees a new protected heap block (the pvPortMalloc
// wrapper's CTE_register_protected_memory). Under heap-uaf the
// allocator has reused quarantined memory: those ranges are live again
// and must stop firing.
func (c *Core) detectProtect(block, size uint32) {
	if !c.hasDetector(detHeapUAF) {
		return
	}
	end := block + size
	kept := c.freed[:0]
	for _, r := range c.freed {
		if block < r.end && end > r.start {
			continue
		}
		kept = append(kept, r)
	}
	c.freed = kept
}

// detectUnprotect sees a free (the vPortFree wrapper's
// CTE_free_protected_memory) after removedZones guard zones were
// stripped: 2 for a live allocation, 0 for an unknown or already-freed
// block. heap-guard fails the path on free(NULL), a double free or a
// bad free; heap-uaf quarantines a cleanly freed block.
func (c *Core) detectUnprotect(block, size uint32, removedZones int) *SimError {
	if c.hasDetector(detHeapGuard) {
		switch {
		case block == 0:
			return &SimError{Kind: ErrBadFree, PC: c.PC, Addr: block, Msg: "free(NULL)"}
		case removedZones == 0:
			return &SimError{Kind: ErrDoubleFree, PC: c.PC, Addr: block,
				Msg: "no protected zones registered for block"}
		case removedZones != 2:
			return &SimError{Kind: ErrBadFree, PC: c.PC, Addr: block,
				Msg: "inconsistent protected zones"}
		}
	}
	if block == 0 || removedZones != 2 || size == 0 || !c.hasDetector(detHeapUAF) {
		return nil
	}
	if len(c.freed) >= quarantineCap {
		c.freed = c.freed[1:]
	}
	c.freed = append(c.freed, addrRange{start: block, end: block + size})
	return nil
}

// armCanary and disarmCanary serve the CTE_canary_arm and
// CTE_canary_disarm ecalls (e.g. the tail of a parser's reassembly
// buffer, or the word below a task stack). Without stack-canary they
// are no-ops, so instrumented guests run unchanged under a plain set.
func (c *Core) armCanary(addr, size uint32) {
	if size == 0 || !c.hasDetector(detStackCanary) {
		return
	}
	c.armed = append(c.armed, addrRange{start: addr, end: addr + size})
}

func (c *Core) disarmCanary(addr uint32) {
	kept := c.armed[:0]
	for _, r := range c.armed {
		if r.start != addr {
			kept = append(kept, r)
		}
	}
	c.armed = kept
}

// detectTrap sees machine trap entry. irq-reentrancy keeps the stack of
// active causes: re-entering a handler whose cause is already active
// (the guest re-enabled mstatus.MIE inside the handler and the same
// line fired again) fails the path; nesting *different* causes is
// legitimate prioritized interrupt handling and passes.
func (c *Core) detectTrap(cause uint32) *SimError {
	if !c.hasDetector(detIRQReentrancy) {
		return nil
	}
	for _, a := range c.irqActive {
		if a == cause {
			return &SimError{Kind: ErrIRQReentrancy, PC: c.PC, Addr: cause,
				Msg: fmt.Sprintf("handler for cause %d re-entered (depth %d)", cause, len(c.irqActive)+1)}
		}
	}
	c.irqActive = append(c.irqActive, cause)
	return nil
}

// detectMRet sees trap exit: the innermost active cause ends.
func (c *Core) detectMRet() {
	if len(c.irqActive) > 0 {
		c.irqActive = c.irqActive[:len(c.irqActive)-1]
	}
}
