package iss

import (
	"fmt"
	"sort"
	"sync"
)

// Pluggable bug detectors. The runtime checks of §3.1.1/§4.2.2 used to
// be a closed ErrKind switch hard-wired into the memory and ecall
// paths; detectors make the set open: each detector observes a narrow
// slice of the execution (memory accesses, heap protect/unprotect
// events, trap entry/exit) and may raise a SimError with its own kind.
// A core carries an ordered detector list — iss.New installs
// DefaultDetectors (the paper's heap guard-zone check); engines and the
// CLI swap in richer sets by name (-detectors). Detectors are part of
// the cloned VP state, so per-path detector state (UAF quarantines,
// armed canaries, active IRQ causes) forks with the path.

// Detector is the base interface every bug detector implements. A
// detector additionally implements one or more of AccessDetector,
// HeapDetector, TrapDetector and CanaryDetector to receive events.
type Detector interface {
	// Kind names the detector (stable, kebab-case; doubles as the
	// registry key and the classification key for guest bug tables).
	Kind() string
	// CloneDetector deep-copies per-path state (the VP is cloned before
	// every explored input, and forked at divergence points).
	CloneDetector() Detector
}

// AccessDetector observes every checked data memory access (after the
// null-pointer and alignment checks). Returning a non-nil error fails
// the path.
type AccessDetector interface {
	Detector
	OnAccess(c *Core, addr uint32, size int, isWrite bool) *SimError
}

// HeapDetector observes the protected-heap lifecycle driven by the
// CTE_register_protected_memory / CTE_free_protected_memory ecalls
// (the pvPortMalloc/vPortFree wrappers of paper Fig. 5). OnUnprotect
// sees the number of guard zones that were actually removed (2 for a
// live allocation, 0 for an unknown or already-freed block) and may
// fail the path.
type HeapDetector interface {
	Detector
	OnProtect(c *Core, block, size uint32)
	OnUnprotect(c *Core, block, size uint32, removedZones int) *SimError
}

// TrapDetector observes machine trap entry (takeInterrupt) and exit
// (mret). OnTrap may fail the path.
type TrapDetector interface {
	Detector
	OnTrap(c *Core, cause uint32) *SimError
	OnMRet(c *Core)
}

// CanaryDetector receives the CTE_canary_arm / CTE_canary_disarm
// ecalls. When no canary detector is attached the ecalls are no-ops,
// so instrumented guests run unchanged under a plain detector set.
type CanaryDetector interface {
	Detector
	Arm(c *Core, addr, size uint32)
	Disarm(c *Core, addr uint32)
}

// --- registry ---

var (
	detMu      sync.RWMutex
	detFactory = map[string]func() Detector{}
)

// RegisterDetector makes a detector constructible by name (NewDetector,
// Core.AttachDetectorSet, cmd/cte -detectors). Registering an existing
// kind replaces the factory.
func RegisterDetector(kind string, factory func() Detector) {
	detMu.Lock()
	defer detMu.Unlock()
	detFactory[kind] = factory
}

// NewDetector constructs a registered detector by kind.
func NewDetector(kind string) (Detector, error) {
	detMu.RLock()
	f := detFactory[kind]
	detMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("iss: unknown detector %q (registered: %v)", kind, RegisteredDetectors())
	}
	return f(), nil
}

// RegisteredDetectors lists the registered detector kinds, sorted.
func RegisteredDetectors() []string {
	detMu.RLock()
	defer detMu.RUnlock()
	kinds := make([]string, 0, len(detFactory))
	for k := range detFactory {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// DefaultDetectors returns the detector set iss.New installs: the
// paper's heap guard-zone overflow check. Richer sets are opt-in.
func DefaultDetectors() []Detector {
	return []Detector{newHeapGuard()}
}

func init() {
	RegisterDetector(KindHeapGuard, func() Detector { return newHeapGuard() })
	RegisterDetector(KindHeapUAF, func() Detector { return newHeapUAF() })
	RegisterDetector(KindStackCanary, func() Detector { return newStackCanary() })
	RegisterDetector(KindIRQReentrancy, func() Detector { return newIRQReent() })
}

// Registered detector kinds.
const (
	KindHeapGuard     = "heap-guard"
	KindHeapUAF       = "heap-uaf"
	KindStackCanary   = "stack-canary"
	KindIRQReentrancy = "irq-reentrancy"
)

// --- Core attachment ---

// SetDetectors replaces the core's detector list (order is the event
// dispatch order). Passing DefaultDetectors() restores the stock set;
// an empty call disables all pluggable checks.
func (c *Core) SetDetectors(ds ...Detector) {
	c.detectors = append([]Detector(nil), ds...)
	c.deriveDetectors()
}

// AttachDetectorSet resolves names through the registry and replaces
// the detector set. The name "all" expands to every registered kind;
// nil keeps the current set unchanged.
func (c *Core) AttachDetectorSet(names []string) error {
	if names == nil {
		return nil
	}
	var ds []Detector
	for _, n := range names {
		if n == "all" {
			for _, k := range RegisteredDetectors() {
				d, err := NewDetector(k)
				if err != nil {
					return err
				}
				ds = append(ds, d)
			}
			continue
		}
		d, err := NewDetector(n)
		if err != nil {
			return err
		}
		ds = append(ds, d)
	}
	c.SetDetectors(ds...)
	return nil
}

// DetectorKinds lists the kinds attached to this core, in dispatch
// order.
func (c *Core) DetectorKinds() []string {
	kinds := make([]string, len(c.detectors))
	for i, d := range c.detectors {
		kinds[i] = d.Kind()
	}
	return kinds
}

// deriveDetectors rebuilds the per-event dispatch slices.
func (c *Core) deriveDetectors() {
	c.accessDet, c.heapDet, c.trapDet, c.canaryDet = nil, nil, nil, nil
	for _, d := range c.detectors {
		if a, ok := d.(AccessDetector); ok {
			c.accessDet = append(c.accessDet, a)
		}
		if h, ok := d.(HeapDetector); ok {
			c.heapDet = append(c.heapDet, h)
		}
		if t, ok := d.(TrapDetector); ok {
			c.trapDet = append(c.trapDet, t)
		}
		if k, ok := d.(CanaryDetector); ok {
			c.canaryDet = append(c.canaryDet, k)
		}
	}
}

// cloneDetectors deep-copies the detector list into clone n.
func (c *Core) cloneDetectorsInto(n *Core) {
	if len(c.detectors) == 0 {
		n.detectors, n.accessDet, n.heapDet, n.trapDet, n.canaryDet = nil, nil, nil, nil, nil
		return
	}
	n.detectors = make([]Detector, len(c.detectors))
	for i, d := range c.detectors {
		n.detectors[i] = d.CloneDetector()
	}
	n.deriveDetectors()
}

// --- heap-guard: the paper's guard-zone overflow/free checks ---

// heapGuard scans the protected zones registered around heap blocks
// (Fig. 5) on every access, and classifies bad frees. It is stateless —
// the zone list lives on the Core so BMC's ZonesSnapshot keeps working.
type heapGuard struct{}

func newHeapGuard() *heapGuard { return &heapGuard{} }

func (g *heapGuard) Kind() string            { return KindHeapGuard }
func (g *heapGuard) CloneDetector() Detector { return g }

func (g *heapGuard) OnAccess(c *Core, addr uint32, size int, isWrite bool) *SimError {
	for i := range c.zones {
		z := &c.zones[i]
		if addr < z.Start+z.Size && addr+uint32(size) > z.Start {
			kind := ErrProtectedRead
			if isWrite {
				kind = ErrProtectedWrite
			}
			return &SimError{Kind: kind, PC: c.PC, Addr: addr,
				Msg: fmt.Sprintf("protected zone of block %#x", z.Block)}
		}
	}
	return nil
}

func (g *heapGuard) OnProtect(c *Core, block, size uint32) {}

func (g *heapGuard) OnUnprotect(c *Core, block, size uint32, removedZones int) *SimError {
	if block == 0 {
		return &SimError{Kind: ErrBadFree, PC: c.PC, Addr: block, Msg: "free(NULL)"}
	}
	switch removedZones {
	case 2:
		return nil // both guard zones removed
	case 0:
		return &SimError{Kind: ErrDoubleFree, PC: c.PC, Addr: block,
			Msg: "no protected zones registered for block"}
	default:
		return &SimError{Kind: ErrBadFree, PC: c.PC, Addr: block,
			Msg: "inconsistent protected zones"}
	}
}

// --- heap-uaf: use-after-free quarantine ---

// quarantineCap bounds the freed-range ring; old entries fall off, so
// very long-lived sessions trade detection of ancient frees for bounded
// clone cost.
const quarantineCap = 64

type freedRange struct{ start, end uint32 }

// heapUAF remembers recently freed heap blocks (as reported by the
// vPortFree wrapper's CTE_free_protected_memory) and flags any access
// that touches a quarantined range before it is re-allocated.
type heapUAF struct {
	freed []freedRange
}

func newHeapUAF() *heapUAF { return &heapUAF{} }

func (u *heapUAF) Kind() string { return KindHeapUAF }
func (u *heapUAF) CloneDetector() Detector {
	return &heapUAF{freed: append([]freedRange(nil), u.freed...)}
}

func (u *heapUAF) OnAccess(c *Core, addr uint32, size int, isWrite bool) *SimError {
	end := addr + uint32(size)
	for _, r := range u.freed {
		if addr < r.end && end > r.start {
			return &SimError{Kind: ErrUseAfterFree, PC: c.PC, Addr: addr,
				Msg: fmt.Sprintf("freed block [%#x,%#x)", r.start, r.end)}
		}
	}
	return nil
}

func (u *heapUAF) OnProtect(c *Core, block, size uint32) {
	// The allocator reused quarantined memory: those ranges are live
	// again and must stop firing.
	end := block + size
	kept := u.freed[:0]
	for _, r := range u.freed {
		if block < r.end && end > r.start {
			continue
		}
		kept = append(kept, r)
	}
	u.freed = kept
}

func (u *heapUAF) OnUnprotect(c *Core, block, size uint32, removedZones int) *SimError {
	if block == 0 || removedZones != 2 || size == 0 {
		return nil // bad frees are heap-guard's call; nothing to quarantine
	}
	if len(u.freed) >= quarantineCap {
		u.freed = u.freed[1:]
	}
	u.freed = append(u.freed, freedRange{start: block, end: block + size})
	return nil
}

// --- stack-canary: guest-armed write tripwires ---

type canaryRegion struct{ start, end uint32 }

// stackCanary tracks regions armed by the guest via CTE_canary_arm
// (e.g. the tail of a parser's reassembly buffer, or the word below a
// task stack). Any write that overlaps an armed region is a stack/
// buffer smash; reads are allowed so the guest may verify the canary
// itself.
type stackCanary struct {
	armed []canaryRegion
}

func newStackCanary() *stackCanary { return &stackCanary{} }

func (s *stackCanary) Kind() string { return KindStackCanary }
func (s *stackCanary) CloneDetector() Detector {
	return &stackCanary{armed: append([]canaryRegion(nil), s.armed...)}
}

func (s *stackCanary) Arm(c *Core, addr, size uint32) {
	if size == 0 {
		return
	}
	s.armed = append(s.armed, canaryRegion{start: addr, end: addr + size})
}

func (s *stackCanary) Disarm(c *Core, addr uint32) {
	kept := s.armed[:0]
	for _, r := range s.armed {
		if r.start == addr {
			continue
		}
		kept = append(kept, r)
	}
	s.armed = kept
}

func (s *stackCanary) OnAccess(c *Core, addr uint32, size int, isWrite bool) *SimError {
	if !isWrite {
		return nil
	}
	end := addr + uint32(size)
	for _, r := range s.armed {
		if addr < r.end && end > r.start {
			return &SimError{Kind: ErrStackSmash, PC: c.PC, Addr: addr,
				Msg: fmt.Sprintf("write into armed canary [%#x,%#x)", r.start, r.end)}
		}
	}
	return nil
}

// --- irq-reentrancy: same-cause nested trap entry ---

// irqReent keeps the stack of active trap causes. Re-entering a
// handler whose cause is already active (the guest re-enabled
// mstatus.MIE inside the handler and the same line fired again) is
// reported; nesting *different* causes is legitimate prioritized
// interrupt handling and passes.
type irqReent struct {
	active []uint32
}

func newIRQReent() *irqReent { return &irqReent{} }

func (r *irqReent) Kind() string { return KindIRQReentrancy }
func (r *irqReent) CloneDetector() Detector {
	return &irqReent{active: append([]uint32(nil), r.active...)}
}

func (r *irqReent) OnTrap(c *Core, cause uint32) *SimError {
	for _, a := range r.active {
		if a == cause {
			return &SimError{Kind: ErrIRQReentrancy, PC: c.PC, Addr: cause,
				Msg: fmt.Sprintf("handler for cause %d re-entered (depth %d)", cause, len(r.active)+1)}
		}
	}
	r.active = append(r.active, cause)
	return nil
}

func (r *irqReent) OnMRet(c *Core) {
	if len(r.active) > 0 {
		r.active = r.active[:len(r.active)-1]
	}
}
