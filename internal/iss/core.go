// Package iss implements the concolic RV32IMC instruction set simulator
// at the heart of the CTE virtual prototype (paper §3). The ISS operates
// on concolic data types, propagates symbolic constraints during
// execution, tracks the execution path condition (EPC) and emits trace
// conditions (TCs) at symbolic branches and at assume/assert sites. It
// also implements the CTE-interface used by peripheral software models:
// notifications with a cycle-accurate timing model, context switching
// between the software under test and peripheral functions, interrupt
// lines, and protected memory zones for heap overflow detection.
//
// # Execution engines
//
// The ISS has two architecturally equivalent execution engines. Step
// (core.go, exec.go) is the legacy reference: fetch, decode and a
// switch over every opcode, once per instruction. Run normally executes
// through the predecoded basic-block cache instead (bbcache.go,
// dispatch.go): straight-line blocks are decoded once into pre-resolved
// operation records dispatched through per-opcode handler functions,
// with adjacent hot pairs fused into superinstructions. Blocks are
// invalidated when the memory they cover is written, and Core.Freeze
// publishes them into a shared layer that concurrent clones extend
// lazily — so a fuzzing or multi-path campaign decodes each block once,
// not once per execution. Core.NoBlockCache and Core.NoFusion select
// the ablation points; results (registers, counters, EPC, trace
// conditions, edge coverage) are bit-identical across all three modes.
//
// Both the concolic re-execution mode (FuzzInput replay) and the
// fuzzer's ConcreteOnly fast path — which skips all symbolic shadow
// work — run on the same cached blocks. See DESIGN.md "ISS" for the
// discovery, termination and invalidation rules.
package iss

import (
	"fmt"

	"rvcte/internal/concolic"
	"rvcte/internal/obs"
	"rvcte/internal/rv32"
	"rvcte/internal/smt"
)

// ErrKind classifies the runtime checks of §3.1.1 and §4.2.2.
type ErrKind int

const (
	ErrNone ErrKind = iota
	ErrAssertFail
	ErrAssumeFail // not an error per se: path pruned by a false assume
	ErrNullDeref
	ErrIllegalLoad
	ErrIllegalStore
	ErrMisaligned
	ErrIllegalJump
	ErrIllegalInstr
	ErrProtectedRead  // heap buffer overflow (read)
	ErrProtectedWrite // heap buffer overflow (write)
	ErrDoubleFree
	ErrBadFree
	ErrDeadlock // wfi with no pending event source
	ErrLimit    // instruction budget exhausted
	// Detector-raised kinds (detect.go).
	ErrUseAfterFree  // access to a quarantined freed heap block
	ErrStackSmash    // write into an armed stack/buffer canary region
	ErrIRQReentrancy // same-cause nested interrupt handler entry
)

var errKindNames = map[ErrKind]string{
	ErrAssertFail: "assertion failure", ErrAssumeFail: "assume pruned",
	ErrNullDeref: "null pointer dereference", ErrIllegalLoad: "illegal memory read",
	ErrIllegalStore: "illegal memory write", ErrMisaligned: "misaligned access",
	ErrIllegalJump: "invalid jump target", ErrIllegalInstr: "illegal instruction",
	ErrProtectedRead: "heap buffer overflow (read)", ErrProtectedWrite: "heap buffer overflow (write)",
	ErrDoubleFree: "double free", ErrBadFree: "free of non-allocated block",
	ErrDeadlock: "wfi deadlock", ErrLimit: "instruction limit exceeded",
	ErrUseAfterFree: "heap use after free", ErrStackSmash: "stack smashing (canary write)",
	ErrIRQReentrancy: "irq handler reentrancy",
}

func (k ErrKind) String() string {
	if s, ok := errKindNames[k]; ok {
		return s
	}
	return "ok"
}

// SimError is a simulation-terminating error detected by a runtime check.
type SimError struct {
	Kind ErrKind
	PC   uint32
	Addr uint32
	Msg  string
}

func (e *SimError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("%v at pc=%#x: %s", e.Kind, e.PC, e.Msg)
	}
	return fmt.Sprintf("%v at pc=%#x addr=%#x", e.Kind, e.PC, e.Addr)
}

// TraceCond records one emitted trace condition: the conjunction of the
// first EPCLen entries of the final EPC with Cond. SiteIdx is the index
// of the emission site along the path (used for generational search).
type TraceCond struct {
	EPCLen  int
	Cond    *smt.Expr
	SiteIdx int
	// FlipFrom/FlipTo identify the control-flow edge that taking the
	// flipped direction of a conditional branch would execute (branch PC
	// and the not-followed successor). Both are zero for non-branch trace
	// conditions (concretization ladders, assume/assert negations,
	// host-model branches), which have no single flip edge. The hybrid
	// driver uses this to skip solving flips whose target edge concrete
	// fuzzing has already covered (Driller's "only solve what fuzzing
	// cannot reach").
	FlipFrom uint32
	FlipTo   uint32
}

// EdgeIndex returns the EdgeMap slot that executing the control-flow
// edge from→to would hit. It must mirror the per-instruction update in
// Step: cur = (pc>>1)*K; idx = cur ^ (prev>>1); prev = cur.
func EdgeIndex(from, to uint32, mapLen int) uint32 {
	cur := (to >> 1) * 0x9e3779b1
	prev := ((from >> 1) * 0x9e3779b1) >> 1
	return (cur ^ prev) & uint32(mapLen-1)
}

// HostModel is a peripheral implemented on the host side with full
// access to concolic values — the "C++ peripheral models with a more
// comprehensive abstraction layer" of the paper's future work (§5 item
// 1). It avoids the software-model transformation step at the price of
// writing concolic-aware code per peripheral (the trade-off §3.1.2
// calls "fully specialized").
type HostModel interface {
	// Transport handles one bus access at a peripheral-local address.
	// For reads the model returns the value; for writes v holds the
	// stored value. The core gives access to the CTE facilities
	// (NotifyHostModel, TriggerIRQ, MakeSymbolicValue, AssumeValue...).
	Transport(c *Core, addr uint32, size int, v concolic.Value, isRead bool) concolic.Value
	// Notify delivers a scheduled callback (the host-side counterpart
	// of a CTE_notify-driven process).
	Notify(c *Core, event uint32)
	// CloneModel deep-copies the model state (the VP is cloned before
	// every explored input).
	CloneModel() HostModel
}

// Peripheral describes one memory-mapped peripheral: either a
// software model (paper §3.2 — accesses are routed to the guest
// Transport function via a context switch) or a host model (future
// work §5.1 — Host is non-nil and handles accesses directly).
type Peripheral struct {
	Name      string
	Base      uint32
	Size      uint32
	Transport uint32 // guest address of transport(addr, data, size, is_read)
	Buf       uint32 // guest address of the transaction data array
	Host      HostModel
}

// Zone is a protected memory region guarding a heap allocation
// (paper Fig. 5): [Start, Start+Size) must not be touched.
type Zone struct {
	Start uint32
	Size  uint32
	Block uint32 // user block address this zone protects (for messages)
}

// savedCtx is a saved execution context for peripheral context switching
// (paper §3.2.2): registers and PC, plus the memory operation to finish
// when CTE_return fires.
type savedCtx struct {
	regs    [32]concolic.Value
	pc      uint32
	pending pendingOp
}

type pendingOp struct {
	active bool
	isLoad bool
	size   int
	rd     uint8
	buf    uint32 // transaction buffer to read the result from
	signed bool
}

// notification is a pending CTE_notify: either a guest function Fn
// (invoked via context switch) or a host-model callback (resolved
// through the peripheral index so clones dispatch to their own model
// instance).
type notification struct {
	Fn        uint32
	HostIdx   int // index+1 into Peripherals; 0 = guest notification
	HostEvent uint32
	Due       uint64
}

// Config fixes the memory map of the VP.
type Config struct {
	RamBase uint32
	RamSize uint32
	// StackTop is where sp starts; 0 means RamBase+RamSize.
	StackTop uint32
	// PeriphStackTop is the dedicated stack for peripheral SW models;
	// 0 disables the dedicated stack (peripherals then run on the
	// interrupted software's stack).
	PeriphStackTop uint32
	// MaxInstr bounds one run; 0 means no limit.
	MaxInstr uint64
}

// Core is the concolic ISS state. Create with New, load an image, then
// Run. Clone snapshots the whole VP between exploration runs.
type Core struct {
	B   *smt.Builder
	Ops concolic.Ops
	Mem *concolic.Memory

	Regs [32]concolic.Value
	PC   uint32

	// Machine-mode CSRs.
	MStatus  uint32
	MIE      uint32
	MIP      uint32
	MTVec    uint32
	MEPC     uint32
	MCause   uint32
	MTVal    uint32
	MScratch uint32

	Cycles     uint64
	InstrCount uint64

	Cfg         Config
	Peripherals []Peripheral

	// CTE state.
	EPC       []*smt.Expr // path condition, append-only within a run
	Trace     []TraceCond
	siteCount int
	Bound     int // sites below Bound do not emit TCs (generational search)
	Input     smt.Assignment

	notifications []notification
	ctxStack      []savedCtx
	zones         []Zone

	symCounters map[string]int // per-name make_symbolic counters

	Exited   bool
	ExitCode uint32
	Err      *SimError

	// TrackCoverage enables per-run PC coverage collection (used by the
	// coverage-guided search strategy, paper §5 future work 3).
	TrackCoverage bool
	Coverage      map[uint32]struct{}

	// NoConcretizationTCs disables the §2.2 optional trace conditions at
	// size concretizations (used by the ablation benchmarks).
	NoConcretizationTCs bool

	// AddressTCs additionally emits alternative-value trace conditions
	// when a symbolic memory address is concretized, letting exploration
	// steer accesses into protected zones (off by default: symbolic
	// addresses are frequent and the extra queries are only worthwhile
	// for out-of-bounds hunting on index-driven code).
	AddressTCs bool

	// SymbolicTimes enables exploration of symbolic CTE_notify delays
	// (paper future work §5.2): alternative firing times become trace
	// conditions, so interrupt/notification orderings relative to the
	// software are explored and timing bugs (lost updates, races)
	// surface.
	SymbolicTimes bool

	// Fuzz-mode state (hybrid fuzzing, DESIGN.md "Hybrid fuzzing").
	// When FuzzInput is non-nil, make-symbolic sites consume their
	// concrete bytes from this flat stream in execution order instead of
	// the Input assignment. FuzzPos keeps advancing past the end of the
	// stream (missing bytes read as zero), so after a run it reports the
	// total number of input bytes the path demanded.
	FuzzInput []byte
	FuzzPos   int
	// ConcreteOnly skips all symbolic shadow state: make-symbolic sites
	// store plain bytes, so no SMT variables are minted, the EPC stays
	// empty and no trace conditions are emitted — the concrete fast path
	// the fuzzer runs on. Without it (concolic replay of a fuzz input)
	// variables are minted as usual, Input records the stream bytes, and
	// SymOrder records the minted variable ids in consumption order so a
	// solver model can be mapped back onto the byte stream.
	ConcreteOnly bool
	SymOrder     []int

	// EdgeMap, when non-nil, collects hashed PC-pair edge coverage
	// (AFL-style; the length must be a power of two). Unlike the
	// Coverage map it costs one multiply, one xor and a saturating
	// increment per retired instruction — cheap enough for fuzzing
	// throughput. With ProtoStates > 1 the map is split into that many
	// equal power-of-two banks and each edge lands in the bank selected
	// by the guest's current protocol state (stateful-fuzzer
	// state × edge coverage): revisiting an edge in a new protocol
	// state counts as new coverage.
	EdgeMap []byte
	prevLoc uint32

	// ProtoStateAddr, when non-zero, names the guest byte holding the
	// protocol state (e.g. a TCP session state variable). Writes that
	// cover the address re-read it at the next instruction boundary:
	// the edge map switches to the bank for the new state (clamped to
	// ProtoStates-1) and ProtoProbe, when set, observes the transition —
	// the inter-packet guest-state probe of multi-packet campaigns.
	ProtoStateAddr uint32
	ProtoStates    int
	ProtoProbe     func(c *Core, state uint32)
	protoBank      uint32
	protoDirty     bool
	edgeMask       uint32 // per-bank index mask; 0 = not yet derived

	// Pluggable bug detectors (detect.go) with per-event dispatch
	// slices derived by deriveDetectors.
	detectors []Detector
	accessDet []AccessDetector
	heapDet   []HeapDetector
	trapDet   []TrapDetector
	canaryDet []CanaryDetector

	// TraceDepth keeps a ring buffer of the last N executed
	// instructions for error diagnosis (0 disables).
	TraceDepth int
	traceRing  []TraceEntry
	traceNext  int

	// ExecHook, when set, may take over execution of an instruction
	// (returning true). Used by the nested-interpretation baseline
	// (internal/nestedvm) that models running the VP inside a generic
	// symbolic execution engine like S2E.
	ExecHook func(c *Core, inst rv32.Inst) bool

	Output []byte // console output from the guest

	// ObsInstr/ObsExecs, when non-nil, are observability sinks
	// (internal/obs): every Run call adds the instructions it retired to
	// ObsInstr and one completed execution to ObsExecs when it returns.
	// Counting happens once per run, not per instruction, so the
	// simulation loop stays unobserved. Clones inherit the pointers, so
	// one counter pair aggregates across every core of a campaign (the
	// counters are atomic).
	ObsInstr *obs.Counter
	ObsExecs *obs.Counter
	// ObsBBHits/ObsBBMisses/ObsBBInval aggregate the block-cache hit,
	// miss and invalidation counts ("iss.bb.*"), flushed once per Run
	// like ObsInstr.
	ObsBBHits   *obs.Counter
	ObsBBMisses *obs.Counter
	ObsBBInval  *obs.Counter

	// NoBlockCache disables the predecoded basic-block cache: Run then
	// drives the legacy fetch/decode/execute Step loop. Used by the
	// ablation benchmarks as the honest pre-cache baseline.
	NoBlockCache bool
	// NoFusion keeps the block cache but disables the superinstruction
	// pass that fuses hot adjacent pairs (lui+addi, auipc+addi,
	// compare+branch).
	NoFusion bool

	// CaptureForks enables checkpointing at trace-condition emission sites
	// (fork.go): whenever a TC is emitted, a copy-on-write clone of the VP
	// as of the start of the current instruction is stashed in forkPoints,
	// keyed by site index. The engine later resumes one of these clones
	// with a new solver model substituted (Fork), skipping re-execution of
	// the path prefix. Off by default — capture costs one Clone per TC
	// site.
	CaptureForks bool
	// ForkMinPrefix skips checkpoint capture while InstrCount is below
	// the bound: on short prefixes a snapshot restart re-executes less
	// work than a capture costs, so those children fall back to restarts
	// (which are bit-identical by construction). Zero captures always.
	ForkMinPrefix uint64
	forkPoints    map[int]*Core
	// capMemo is the memory snapshot of the most recent checkpoint,
	// reusable by the next capture as long as no memory write happened in
	// between (noteMemWrite clears it). Checkpoint cores never execute —
	// Fork always clones them first — so sharing one Memory between
	// consecutive checkpoints is read-only and saves the dominant cost of
	// capture (the page-table copy) on branch-dense code.
	capMemo *concolic.Memory
	// hostDepth > 0 while a host peripheral model is running (Transport or
	// Notify): TCs emitted there happen mid-mutation of model state, so
	// fork capture is skipped and those children fall back to a snapshot
	// restart. stepUnsafe marks the rest of an instruction after a
	// boundary host-model notification already fired (resuming a capture
	// from before it would deliver the notification twice).
	hostDepth  int
	stepUnsafe bool
	// Pre-instruction rewind state for mid-instruction TC emission
	// (recordPreState), valid only while CaptureForks is set.
	preEPCLen   int
	preSite     int
	preRingLen  int
	preRingNext int
	// outSym shadows Output with the symbolic expression of each byte that
	// was printed from a symbolic value (nil for concrete bytes); indexes
	// align with Output. Maintained only under CaptureForks so forked
	// paths can re-evaluate prefix output under their new model.
	outSym []*smt.Expr

	// bb is the per-core translation cache (bbcache.go). bbAbort asks the
	// block runner to stop after the current record (peripheral context
	// switch, block invalidation, runtime unfusing); runLimit mirrors
	// Run's effective budget for the fused-pair feasibility check.
	bb       *bbCache
	bbAbort  bool
	runLimit uint64

	// CyclesPer assigns each executed instruction a fixed cycle cost
	// (paper §3.2: "a simple timing model that assigns each RISC-V
	// instruction a fixed number of cycles").
	CyclesPer func(op rv32.Op) uint64
}

// New creates a core with the given builder and configuration.
func New(b *smt.Builder, cfg Config) *Core {
	if cfg.StackTop == 0 {
		cfg.StackTop = cfg.RamBase + cfg.RamSize
	}
	c := &Core{
		B:           b,
		Ops:         concolic.Ops{B: b},
		Mem:         concolic.NewMemory(b),
		Cfg:         cfg,
		symCounters: map[string]int{},
		Input:       smt.Assignment{},
	}
	c.Regs[2] = concolic.Concrete(cfg.StackTop)
	c.bb = newBBCache(cfg.RamBase, cfg.RamSize)
	c.Mem.OnWrite = c.noteMemWrite
	c.SetDetectors(DefaultDetectors()...)
	return c
}

// Freeze prepares the core to serve as a shared exploration snapshot:
// its memory pages are marked copy-on-write once, so subsequent Clone
// calls never mutate snapshot state and may run concurrently from
// multiple worker goroutines. Decoded basic blocks are promoted into an
// immutable shared layer at the same time, so clones start with the
// snapshot's translations instead of re-decoding. The frozen core
// itself must no longer be stepped or mutated while clones are
// outstanding.
func (c *Core) Freeze() {
	c.Mem.Freeze()
	if c.bb != nil {
		c.bb.freeze()
	}
}

// Clone deep-copies the VP state so a new input can be executed from the
// same starting point (paper §3.1.1: "The VP is cloned each time before
// executing a new input"). The SMT builder is shared (expressions are
// immutable and the builder is internally locked). After Freeze, Clone
// only reads the receiver and is safe to call concurrently.
func (c *Core) Clone() *Core {
	n := c.cloneNoMem()
	n.Mem = c.Mem.Clone()
	n.Mem.OnWrite = n.noteMemWrite
	return n
}

// cloneNoMem is Clone without the memory snapshot: n.Mem still aliases
// c.Mem and must be replaced by the caller (Clone installs a fresh COW
// clone; captureFork may substitute a memo shared with the previous
// checkpoint).
func (c *Core) cloneNoMem() *Core {
	n := &Core{}
	*n = *c
	n.EPC = append([]*smt.Expr(nil), c.EPC...)
	n.Trace = append([]TraceCond(nil), c.Trace...)
	n.notifications = append([]notification(nil), c.notifications...)
	n.ctxStack = append([]savedCtx(nil), c.ctxStack...)
	n.zones = append([]Zone(nil), c.zones...)
	n.Peripherals = append([]Peripheral(nil), c.Peripherals...)
	for i := range n.Peripherals {
		if n.Peripherals[i].Host != nil {
			n.Peripherals[i].Host = n.Peripherals[i].Host.CloneModel()
		}
	}
	n.Output = append([]byte(nil), c.Output...)
	n.symCounters = make(map[string]int, len(c.symCounters))
	for k, v := range c.symCounters {
		n.symCounters[k] = v
	}
	n.Input = smt.Assignment{}
	for k, v := range c.Input {
		n.Input[k] = v
	}
	n.Coverage = nil // coverage is per-run
	n.traceRing = append([]TraceEntry(nil), c.traceRing...)
	// Fork-capture state: checkpoints belong to the original (the engine
	// harvests them per path); a clone starts a clean capture epoch.
	n.forkPoints = nil
	n.capMemo = nil
	n.stepUnsafe = false
	n.outSym = append([]*smt.Expr(nil), c.outSym...)
	// Fuzz-mode state is per-run: every clone starts with a fresh stream
	// and edge map (the caller installs its own before Run).
	n.FuzzInput = nil
	n.FuzzPos = 0
	n.ConcreteOnly = false
	n.SymOrder = nil
	n.EdgeMap = nil
	n.prevLoc = 0
	n.edgeMask = 0
	n.protoBank = 0
	n.protoDirty = false
	// Detector state (UAF quarantines, armed canaries, active IRQ
	// causes) is per-path and forks with the clone.
	c.cloneDetectorsInto(n)
	// The clone shares the immutable frozen block layer (if any) and
	// rebuilds its private layer lazily; it invalidates against its own
	// memory writes through its own hook.
	n.bb = c.bb.cloneFor()
	n.bbAbort = false
	return n
}

// TraceEntry is one executed instruction in the diagnostic ring buffer.
type TraceEntry struct {
	PC   uint32
	Inst rv32.Inst
}

// RecentTrace returns the last executed instructions, oldest first
// (empty unless TraceDepth was set).
func (c *Core) RecentTrace() []TraceEntry {
	if len(c.traceRing) < c.TraceDepth {
		return append([]TraceEntry(nil), c.traceRing...)
	}
	out := make([]TraceEntry, 0, len(c.traceRing))
	for i := 0; i < len(c.traceRing); i++ {
		out = append(out, c.traceRing[(c.traceNext+i)%len(c.traceRing)])
	}
	return out
}

// LoadImage copies an assembled/linked image into memory and points the
// PC at its entry.
func (c *Core) LoadImage(origin uint32, data []byte, entry uint32) {
	c.Mem.WriteBytes(origin, data)
	c.PC = entry
}

// AddPeripheral registers a memory-mapped peripheral range.
func (c *Core) AddPeripheral(p Peripheral) { c.Peripherals = append(c.Peripherals, p) }

func (c *Core) fail(kind ErrKind, addr uint32, msg string) {
	if c.Err != nil {
		return
	}
	c.Err = &SimError{Kind: kind, PC: c.PC, Addr: addr, Msg: msg}
}

// Halted reports whether the core has stopped (exit, prune, or error).
func (c *Core) Halted() bool { return c.Exited || c.Err != nil }

// reg reads a register (x0 is always zero).
func (c *Core) reg(r uint8) concolic.Value {
	if r == 0 {
		return concolic.Concrete(0)
	}
	return c.Regs[r]
}

func (c *Core) setReg(r uint8, v concolic.Value) {
	if r != 0 {
		c.Regs[r] = v
	}
}

// inRAM reports whether [addr, addr+n) falls in RAM.
func (c *Core) inRAM(addr uint32, n int) bool {
	return addr >= c.Cfg.RamBase && addr+uint32(n) >= addr &&
		addr+uint32(n) <= c.Cfg.RamBase+c.Cfg.RamSize
}

// findPeripheral returns the peripheral mapped at addr, or nil.
func (c *Core) findPeripheral(addr uint32) *Peripheral {
	for i := range c.Peripherals {
		p := &c.Peripherals[i]
		if addr >= p.Base && addr < p.Base+p.Size {
			return p
		}
	}
	return nil
}

// SetObs wires the core's observability sinks to o's registry:
// "iss.instr", "iss.execs" and the "iss.bb.*" block-cache counters. A
// nil o unwires them. Clones inherit the sinks, so wiring a snapshot
// once covers every core cloned from it.
func (c *Core) SetObs(o *obs.Obs) {
	m := o.Registry()
	c.ObsInstr = m.Counter("iss.instr")
	c.ObsExecs = m.Counter("iss.execs")
	c.ObsBBHits = m.Counter("iss.bb.hits")
	c.ObsBBMisses = m.Counter("iss.bb.misses")
	c.ObsBBInval = m.Counter("iss.bb.inval")
}

// Run executes until the core halts or maxInstr instructions have
// retired (0 = use Cfg.MaxInstr; both 0 = unbounded). Execution flows
// through the predecoded basic-block cache (bbcache.go) unless an
// ExecHook is installed or NoBlockCache is set, in which case the
// legacy per-instruction Step loop runs instead.
func (c *Core) Run(maxInstr uint64) {
	if maxInstr == 0 {
		maxInstr = c.Cfg.MaxInstr
	}
	if c.ObsInstr != nil || c.ObsExecs != nil || c.ObsBBHits != nil ||
		c.ObsBBMisses != nil || c.ObsBBInval != nil {
		start := c.InstrCount
		var h0, m0, i0 uint64
		if c.bb != nil {
			h0, m0, i0 = c.bb.hits, c.bb.misses, c.bb.invals
		}
		defer func() {
			c.ObsInstr.Add(int64(c.InstrCount - start))
			c.ObsExecs.Inc()
			if c.bb != nil {
				c.ObsBBHits.Add(int64(c.bb.hits - h0))
				c.ObsBBMisses.Add(int64(c.bb.misses - m0))
				c.ObsBBInval.Add(int64(c.bb.invals - i0))
			}
		}()
	}
	if c.ExecHook != nil || c.NoBlockCache || c.bb == nil {
		for !c.Halted() {
			if maxInstr > 0 && c.InstrCount >= maxInstr {
				c.fail(ErrLimit, c.PC, fmt.Sprintf("after %d instructions", c.InstrCount))
				return
			}
			c.Step()
		}
		return
	}
	c.runLimit = maxInstr
	for !c.Halted() {
		b := c.bb.lookup(c, c.PC)
		if b == nil {
			// The instruction at PC cannot be fetched or decoded (or an
			// event pending here will redirect the PC): take one legacy
			// Step so error reporting and event delivery stay identical.
			if maxInstr > 0 && c.InstrCount >= maxInstr {
				c.fail(ErrLimit, c.PC, fmt.Sprintf("after %d instructions", c.InstrCount))
				return
			}
			c.Step()
			continue
		}
		c.runBlock(b, maxInstr)
	}
}

// Step retires one instruction (or takes one interrupt).
func (c *Core) Step() {
	if c.Halted() {
		return
	}
	if c.CaptureForks {
		c.stepUnsafe = false
	}
	// Deliver notifications and interrupts only at peripheral depth 0,
	// so peripheral functions execute atomically (they model hardware).
	if len(c.ctxStack) == 0 {
		if c.dispatchNotifications() {
			// Context-switched into a notified peripheral function; the
			// next fetch executes it.
		} else if c.takeInterrupt() {
			return
		}
	}
	if c.CaptureForks {
		c.recordPreState()
	}
	inst, ok := c.fetch()
	if !ok {
		return
	}
	if c.protoDirty {
		c.protoRefresh()
	}
	if c.EdgeMap != nil {
		if c.edgeMask == 0 {
			c.initEdgeBank()
		}
		cur := (c.PC >> 1) * 0x9e3779b1
		idx := c.protoBank + (cur^c.prevLoc)&c.edgeMask
		if c.EdgeMap[idx] != 0xff {
			c.EdgeMap[idx]++
		}
		c.prevLoc = cur >> 1
	}
	if c.TrackCoverage {
		if c.Coverage == nil {
			c.Coverage = make(map[uint32]struct{})
		}
		c.Coverage[c.PC] = struct{}{}
	}
	if c.TraceDepth > 0 {
		if len(c.traceRing) < c.TraceDepth {
			c.traceRing = append(c.traceRing, TraceEntry{PC: c.PC, Inst: inst})
		} else {
			c.traceRing[c.traceNext] = TraceEntry{PC: c.PC, Inst: inst}
		}
		c.traceNext = (c.traceNext + 1) % c.TraceDepth
	}
	if c.ExecHook == nil || !c.ExecHook(c, inst) {
		c.execute(inst)
	}
	c.InstrCount++
	if c.CyclesPer != nil {
		c.Cycles += c.CyclesPer(inst.Op)
	} else {
		c.Cycles++
	}
}

// fetch reads and decodes the instruction at PC.
func (c *Core) fetch() (rv32.Inst, bool) {
	if c.PC&1 != 0 {
		c.fail(ErrIllegalJump, c.PC, "misaligned pc")
		return rv32.Inst{}, false
	}
	if !c.inRAM(c.PC, 2) {
		c.fail(ErrIllegalJump, c.PC, "pc outside memory")
		return rv32.Inst{}, false
	}
	lo := c.Mem.Load(c.PC, 2)
	word := lo.C
	if word&3 == 3 {
		if !c.inRAM(c.PC, 4) {
			c.fail(ErrIllegalJump, c.PC, "pc outside memory")
			return rv32.Inst{}, false
		}
		hi := c.Mem.Load(c.PC+2, 2)
		word |= hi.C << 16
	}
	inst := rv32.Decode(word)
	if inst.Op == rv32.OpIllegal {
		c.fail(ErrIllegalInstr, c.PC, fmt.Sprintf("encoding %#x", word))
		return rv32.Inst{}, false
	}
	return inst, true
}

// dispatchNotifications fires due CTE_notify callbacks. Reports whether a
// context switch happened.
func (c *Core) dispatchNotifications() bool {
	for i := 0; i < len(c.notifications); i++ {
		n := c.notifications[i]
		if c.Cycles >= n.Due {
			c.notifications = append(c.notifications[:i], c.notifications[i+1:]...)
			if n.HostIdx > 0 {
				// Host-model callbacks run atomically on the host side,
				// dispatched through the (possibly cloned) peripheral.
				// Fork capture is off for the rest of this step: the
				// callback may leave further due notifications pending that
				// a resumed fork's boundary check would deliver before the
				// re-executed instruction instead of after it (stepUnsafe),
				// and TCs emitted inside the callback happen mid-mutation
				// of model state (hostDepth).
				c.stepUnsafe = true
				c.hostDepth++
				c.Peripherals[n.HostIdx-1].Host.Notify(c, n.HostEvent)
				c.hostDepth--
				return false
			}
			c.enterPeripheral(n.Fn, [4]concolic.Value{}, pendingOp{})
			return true // one at a time; the rest fire on later steps
		}
	}
	return false
}

// NotifyHostModel schedules a callback to the given host model after
// delay cycles (the host-side counterpart of CTE_notify). A pending
// notification with the same (model, event) is reset.
func (c *Core) NotifyHostModel(m HostModel, event uint32, delay uint64) {
	idx := -1
	for i := range c.Peripherals {
		if c.Peripherals[i].Host == m {
			idx = i
			break
		}
	}
	if idx < 0 {
		c.fail(ErrIllegalInstr, c.PC, "NotifyHostModel: model not registered")
		return
	}
	for i := range c.notifications {
		if c.notifications[i].HostIdx == idx+1 && c.notifications[i].HostEvent == event {
			c.notifications[i].Due = c.Cycles + delay
			return
		}
	}
	c.notifications = append(c.notifications, notification{HostIdx: idx + 1, HostEvent: event, Due: c.Cycles + delay})
}

// TriggerIRQ drives a machine interrupt line (host-side counterpart of
// CTE_trigger_irq).
func (c *Core) TriggerIRQ(line uint32, level bool) {
	if level {
		c.MIP |= 1 << (line & 31)
	} else {
		c.MIP &^= 1 << (line & 31)
	}
}

// MakeSymbolicValue mints a fresh symbolic 32-bit value whose concrete
// part comes from the current input assignment (host-side counterpart
// of CTE_make_symbolic for register-like values). In fuzz modes the
// concrete part is drawn from the input byte stream instead.
func (c *Core) MakeSymbolicValue(name string) concolic.Value {
	if c.ConcreteOnly {
		return concolic.Concrete(c.nextFuzzWord())
	}
	gen := c.symCounters[name]
	c.symCounters[name] = gen + 1
	full := name
	if gen > 0 {
		full = fmt.Sprintf("%s#%d", name, gen)
	}
	v := c.B.Var(32, full)
	id := int(v.Val)
	if c.FuzzInput != nil {
		w := c.nextFuzzWord()
		c.Input[id] = uint64(w)
		c.SymOrder = append(c.SymOrder, id)
		return concolic.Value{C: w, Sym: v}
	}
	return concolic.Value{C: uint32(c.Input[id]), Sym: v}
}

// nextFuzzByte consumes one byte from the fuzz input stream; bytes past
// the end read as zero, but FuzzPos keeps advancing so the total demand
// of the run stays observable.
func (c *Core) nextFuzzByte() byte {
	var v byte
	if c.FuzzPos < len(c.FuzzInput) {
		v = c.FuzzInput[c.FuzzPos]
	}
	c.FuzzPos++
	return v
}

// nextFuzzWord consumes four stream bytes, little-endian.
func (c *Core) nextFuzzWord() uint32 {
	var w uint32
	for i := 0; i < 4; i++ {
		w |= uint32(c.nextFuzzByte()) << (8 * i)
	}
	return w
}

// AssumeValue applies CTE_assume semantics to a concolic condition
// (non-zero = true).
func (c *Core) AssumeValue(v concolic.Value) { c.assumeVal(v) }

// AssertValue applies CTE_assert semantics to a concolic condition.
func (c *Core) AssertValue(v concolic.Value) { c.assertVal(v) }

// takeInterrupt checks mstatus.MIE and mie/mip and vectors to mtvec.
func (c *Core) takeInterrupt() bool {
	const mieBit = 1 << 3
	if c.MStatus&mieBit == 0 {
		return false
	}
	pending := c.MIP & c.MIE
	if pending == 0 {
		return false
	}
	// Priority: external > software > timer (per privileged spec).
	var cause uint32
	switch {
	case pending&(1<<rv32.IrqMachineExternal) != 0:
		cause = rv32.IrqMachineExternal
	case pending&(1<<rv32.IrqMachineSoftware) != 0:
		cause = rv32.IrqMachineSoftware
	default:
		cause = rv32.IrqMachineTimer
	}
	c.MEPC = c.PC
	c.MCause = rv32.CauseInterruptFlag | cause
	// mstatus: MPIE <- MIE, MIE <- 0
	const mpieBit = 1 << 7
	c.MStatus = c.MStatus&^mpieBit | (c.MStatus&mieBit)<<4
	c.MStatus &^= mieBit
	c.PC = c.MTVec &^ 3
	for _, d := range c.trapDet {
		if err := d.OnTrap(c, cause); err != nil {
			if c.Err == nil {
				c.Err = err
			}
			break
		}
	}
	return true
}

// EdgeBanks resolves a protocol-state count to the edge-map bank count:
// the next power of two, so every bank length stays a power of two and
// the in-bank index can be a mask. 0 and 1 states mean one bank.
func EdgeBanks(states int) int {
	banks := 1
	for banks < states {
		banks <<= 1
	}
	return banks
}

// initEdgeBank derives the per-bank index mask from the installed edge
// map and the configured protocol-state bank count, then resolves the
// current bank. Called lazily on the first edge-map update after a map
// is installed (cloneNoMem resets the mask).
func (c *Core) initEdgeBank() {
	banks := EdgeBanks(c.ProtoStates)
	bankLen := len(c.EdgeMap) / banks
	if bankLen < 2 {
		bankLen = len(c.EdgeMap)
	}
	c.edgeMask = uint32(bankLen - 1)
	c.protoRefresh()
}

// protoRefresh re-reads the protocol-state byte after a write covered
// it: fires the inter-packet probe and switches the edge-map bank.
func (c *Core) protoRefresh() {
	c.protoDirty = false
	if c.ProtoStateAddr == 0 {
		return
	}
	b, _ := c.Mem.LoadByteRaw(c.ProtoStateAddr)
	st := uint32(b)
	if c.ProtoStates > 1 && st >= uint32(c.ProtoStates) {
		st = uint32(c.ProtoStates) - 1
	}
	if c.ProtoProbe != nil {
		c.ProtoProbe(c, st)
	}
	if c.EdgeMap != nil && c.ProtoStates > 1 && c.edgeMask != 0 {
		bank := st * (c.edgeMask + 1)
		// A map too small to hold one bank per state fell back to a
		// single shared bank in initEdgeBank; don't index past it.
		if int(bank)+int(c.edgeMask) < len(c.EdgeMap) {
			c.protoBank = bank
		}
	}
}

// WaitForInterrupt implements WFI: fast-forward the cycle counter to the
// next notification if no interrupt is pending yet.
func (c *Core) waitForInterrupt() {
	if c.MIP&c.MIE != 0 {
		return // something is already pending; wfi completes immediately
	}
	// Find the earliest notification that could eventually raise an
	// interrupt and jump time forward.
	var best uint64
	found := false
	for _, n := range c.notifications {
		if !found || n.Due < best {
			best = n.Due
			found = true
		}
	}
	if !found {
		c.fail(ErrDeadlock, c.PC, "wfi with no pending notification or interrupt")
		return
	}
	if best > c.Cycles {
		c.Cycles = best
	}
}
