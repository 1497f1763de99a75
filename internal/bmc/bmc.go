// Package bmc is the bounded-model-checking backend: a second
// verification engine next to the concolic one. Starting from the same
// frozen VP snapshot, it symbolically executes *all* paths at once for
// up to K instructions — every register and memory byte is a guarded
// smt.Expr, branches split the path guard, and states that meet at the
// same program point are merged back with ite instead of staying forked
// — then asks one reachability query per bug site (assertion failure,
// heap-guard violation, bad-PC trap, ...) through the shared query
// cache and bit-blaster.
//
// Where the concolic engine proves bug *presence* one path at a time,
// BMC proves *absence* up to the depth bound: an UNSAT reachability
// query means no input reaches that detector in <= K instructions. The
// two engines cross-check each other (CrossCheck, DiffCheck): on the
// supported guest subset the BMC bug set at depth K must equal the
// concolic finding set when concolic is depth-bounded to K.
//
// The supported subset is the synchronous, peripheral-free ISS:
// symbolic jump targets, symbolic data addresses, MMIO/peripheral
// context switches, notifications, CSRs and cycle-dependent interfaces
// make a state "unsupported" — its guard is recorded and the run is
// marked incomplete rather than silently wrong.
package bmc

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rvcte/internal/concolic"
	"rvcte/internal/iss"
	"rvcte/internal/obs"
	"rvcte/internal/qcache"
	"rvcte/internal/smt"
)

// maxStates is a safety valve on the merged-state pool: exceeding it
// stops the unrolling with Stopped = "state-budget".
const maxStates = 4096

// Config tunes one bounded unrolling.
type Config struct {
	// K is the depth bound in retired instructions per path (matches
	// the concolic engine's Budget.MaxInstrPerRun for cross-checks).
	K int
	// Cache, when non-nil, routes the reachability queries through the
	// shared SMT query cache; nil falls back to the bare solver.
	Cache *qcache.Cache
	// MaxConflicts bounds each solver query (0 = unlimited); exhausted
	// queries leave the bug site "unknown" instead of blocking.
	MaxConflicts int
	Obs          *obs.Obs
}

// Finding is one solver-confirmed reachable bug site.
type Finding struct {
	Kind  iss.ErrKind
	PC    uint32
	Addr  uint32
	Msg   string
	Depth int            // shallowest unroll depth that recorded the site
	Input smt.Assignment // model of the reachability query
	// Confirmed reports that replaying Input through the concolic ISS
	// reproduced exactly this (Kind, PC) — the zero-false-positive
	// check.
	Confirmed bool
}

// Report is the outcome of one bounded unrolling.
type Report struct {
	K          int
	Steps      uint64 // state-steps executed (one instruction each)
	PeakStates int    // peak merged-state pool size
	Splits     int    // branch splits
	Merges     int    // ite-merges at join points
	SkewMerges int    // merges of states at different depths (see Exhausted)
	Exits      int    // states that reached CTE_exit
	Truncated  int    // states still live at depth K
	Violations int    // guarded violation terms recorded (pre-solving)
	Sites      int    // distinct (kind, pc) bug sites queried
	Queries    int    // solver/cache queries issued
	Unknown    int    // sites left undecided by the conflict budget
	SolverTime time.Duration
	WallTime   time.Duration
	// Unsupported counts dropped states by reason. Any drop voids the
	// exhaustiveness claim.
	Unsupported map[string]int
	// Exhausted: every path terminated before K and no state was
	// dropped — the bug set is exactly the set of reachable bugs, full
	// stop, not just up to depth K. Merging states of unequal depth
	// (SkewMerges) only threatens exactness when the run *truncates*,
	// so it does not affect this flag.
	Exhausted bool
	// Complete: no state was dropped (Exhausted without the
	// ran-to-completion requirement): the bug set is exact up to K.
	Complete bool
	// Stopped says why the unrolling ended: "exhausted" | "depth" |
	// "state-budget" | "canceled".
	Stopped  string
	Findings []Finding
	// Accounted holds the guards of every terminated, truncated and
	// dropped state. With Complete, they partition the input space:
	// exactly one evaluates true under any total assignment (DiffCheck
	// leans on this).
	Accounted []*smt.Expr
}

// violation is one guarded bug-detector hit recorded during unrolling.
type violation struct {
	kind  iss.ErrKind
	pc    uint32
	addr  uint32
	msg   string
	guard *smt.Expr
	depth int
}

// state is one merged symbolic machine state: a path guard, fully
// symbolic registers, a concrete PC, and a symbolic byte overlay over
// the snapshot image. Two states are merged (ite per register and
// overlay byte, or of the guards) when they reach the same PC with the
// same auxiliary state.
type state struct {
	guard  *smt.Expr
	regs   [32]*smt.Expr
	pc     uint32
	mem    *smt.Mem
	depth  int
	zones  []iss.Zone
	symGen map[string]int
}

func (s *state) clone() *state {
	n := *s
	n.mem = s.mem.Clone()
	n.zones = append([]iss.Zone(nil), s.zones...)
	n.symGen = make(map[string]int, len(s.symGen))
	for k, v := range s.symGen {
		n.symGen[k] = v
	}
	return &n
}

// compatible reports whether two states at the same PC may merge: their
// non-encodable auxiliary state (protected zones, make_symbolic
// generations) must agree, or their futures would diverge in ways the
// guards cannot express.
func compatible(a, t *state) bool {
	if len(a.zones) != len(t.zones) || len(a.symGen) != len(t.symGen) {
		return false
	}
	for i := range a.zones {
		if a.zones[i] != t.zones[i] {
			return false
		}
	}
	for k, v := range a.symGen {
		if t.symGen[k] != v {
			return false
		}
	}
	return true
}

// Executor unrolls one snapshot. Not safe for concurrent use.
type Executor struct {
	b    *smt.Builder
	ops  concolic.Ops
	snap *iss.Core
	// dec is a private clone used as the decode oracle: DecodedAt goes
	// through its predecoded block cache, so the BMC stepper shares the
	// concolic engine's translations. It is never stepped.
	dec *iss.Core
	cfg Config

	violations []violation
	accounted  []*smt.Expr
	unsup      map[string]int
	rep        Report

	// Handles on a child of Config.Obs's registry ("bmc.*"): the child
	// is the only store of the Report counters they back.
	obsSteps, obsSplits, obsMerges, obsViolations *obs.Counter
	obsDrops, obsQueries                          *obs.Counter
	obsStates                                     *obs.Gauge
	obsUnrollUS, obsSolveUS                       *obs.Histogram
}

// New prepares an unrolling of snap. The snapshot is cloned, never
// mutated; the SMT builder is shared so variable identities line up
// with the concolic engine's.
func New(snap *iss.Core, cfg Config) (*Executor, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("bmc: depth bound K must be positive (got %d)", cfg.K)
	}
	if n := snap.PendingHostWork(); n != 0 {
		return nil, fmt.Errorf("bmc: snapshot has %d pending notifications/peripheral contexts; BMC models the synchronous subset only", n)
	}
	x := &Executor{
		b:     snap.B,
		ops:   concolic.Ops{B: snap.B},
		snap:  snap,
		dec:   snap.Clone(),
		cfg:   cfg,
		unsup: map[string]int{},
	}
	// The unrolling models exactly one detector: the heap guard (zones
	// become reachability queries). Any other detector attached to the
	// snapshot — UAF quarantine, stack canary, IRQ reentrancy — watches
	// runtime events this encoding does not carry, so its bugs would be
	// silently missed. Record each as unsupported up front: the run
	// still executes, but Complete/Exhausted stay honestly false.
	for _, kind := range snap.DetectorKinds() {
		if kind != iss.KindHeapGuard {
			x.unsup["detector:"+kind]++
		}
	}
	m := cfg.Obs.Registry().Child()
	x.obsSteps = m.Counter("bmc.steps")
	x.obsSplits = m.Counter("bmc.splits")
	x.obsMerges = m.Counter("bmc.merges")
	x.obsViolations = m.Counter("bmc.violations")
	x.obsDrops = m.Counter("bmc.unsupported_drops")
	x.obsQueries = m.Counter("bmc.queries")
	x.obsStates = m.Gauge("bmc.states")
	x.obsUnrollUS = m.Histogram("bmc.unroll_us", obs.LatencyBoundsUS)
	x.obsSolveUS = m.Histogram("bmc.solve_us", obs.LatencyBoundsUS)
	return x, nil
}

// base returns the background byte expression at addr: the snapshot's
// symbolic shadow when one exists, else its concrete byte.
func (x *Executor) base(addr uint32) *smt.Expr {
	cb, sym := x.dec.Mem.LoadByteRaw(addr)
	if sym != nil {
		return sym
	}
	return x.b.Const(8, uint64(cb))
}

// initialState lifts the snapshot into the symbolic-state encoding.
func (x *Executor) initialState() *state {
	s := &state{
		guard:  x.b.AndAll(x.snap.EPC),
		pc:     x.snap.PC,
		mem:    smt.NewMem(x.base),
		zones:  x.snap.ZonesSnapshot(),
		symGen: x.snap.SymCounterSnapshot(),
	}
	s.regs[0] = x.b.Const(32, 0)
	for i := 1; i < 32; i++ {
		v := x.snap.Regs[i]
		if v.Sym != nil {
			s.regs[i] = v.Sym
		} else {
			s.regs[i] = x.b.Const(32, uint64(v.C))
		}
	}
	return s
}

// Run unrolls up to K instructions per path and solves one reachability
// query per recorded bug site. An Executor runs once.
//
// Scheduling: the state pool is keyed by PC and the lowest PC steps
// first. For the forward-branching code compilers emit, every interior
// state of a branch diamond (lower PC) runs before the join point
// (higher PC) is stepped, so sides arrive at the join while it still
// waits in the pool and merge there; loop-exit states likewise wait
// above the (lower-PC) loop body and absorb one merge per iteration.
// Back edges make this a heuristic, not a guarantee — unmerged states
// are correct, just slower.
func (x *Executor) Run(ctx context.Context) *Report {
	start := time.Now()
	x.rep = Report{K: x.cfg.K, Unsupported: x.unsup}
	pool := map[uint32][]*state{}
	x.insert(pool, x.initialState())
	live := 1
	stopped := ""

	for live > 0 {
		if err := ctx.Err(); err != nil {
			stopped = "canceled"
			break
		}
		if live > maxStates {
			stopped = "state-budget"
			break
		}
		s := popMin(pool)
		live--
		if s.depth >= x.cfg.K {
			x.rep.Truncated++
			x.accounted = append(x.accounted, s.guard)
			continue
		}
		t0 := time.Now()
		succs := x.step(s)
		x.obsUnrollUS.ObserveDuration(time.Since(t0))
		x.obsSteps.Inc()
		for _, n := range succs {
			if n.guard.IsFalse() {
				continue
			}
			live += x.insert(pool, n)
		}
		if live > x.rep.PeakStates {
			x.rep.PeakStates = live
		}
		x.obsStates.Set(int64(live))
	}

	switch {
	case stopped != "":
		x.rep.Stopped = stopped
		// Whatever is still pooled was not fully explored: account the
		// guards as dropped so Complete/Exhausted go false.
		for _, ss := range pool {
			for _, s := range ss {
				x.drop(s, "stopped:"+stopped)
			}
		}
	case x.rep.Truncated > 0:
		x.rep.Stopped = "depth"
	default:
		x.rep.Stopped = "exhausted"
	}
	x.rep.Complete = len(x.unsup) == 0
	x.rep.Exhausted = x.rep.Complete && x.rep.Truncated == 0 && x.rep.Stopped == "exhausted"

	x.solveSites(ctx)
	x.rep.Steps = uint64(x.obsSteps.Value())
	x.rep.Splits = int(x.obsSplits.Value())
	x.rep.Merges = int(x.obsMerges.Value())
	x.rep.Violations = int(x.obsViolations.Value())
	x.rep.Queries = int(x.obsQueries.Value())
	x.rep.Accounted = x.accounted
	x.rep.WallTime = time.Since(start)
	return &x.rep
}

// insert merges s into the pool (returns 0) or adds it (returns 1).
func (x *Executor) insert(pool map[uint32][]*state, s *state) int {
	for _, t := range pool[s.pc] {
		if !compatible(t, s) {
			continue
		}
		g := t.guard
		t.guard = x.b.Or(t.guard, s.guard)
		for i := 1; i < 32; i++ {
			t.regs[i] = x.b.Ite(g, t.regs[i], s.regs[i])
		}
		t.mem.Merge(x.b, g, s.mem)
		if t.depth != s.depth {
			x.rep.SkewMerges++
			if s.depth > t.depth {
				t.depth = s.depth
			}
		}
		x.obsMerges.Inc()
		return 0
	}
	pool[s.pc] = append(pool[s.pc], s)
	return 1
}

// popMin removes and returns a state with the minimal PC.
func popMin(pool map[uint32][]*state) *state {
	min := uint32(0)
	first := true
	for pc := range pool {
		if first || pc < min {
			min, first = pc, false
		}
	}
	ss := pool[min]
	s := ss[0]
	if len(ss) == 1 {
		delete(pool, min)
	} else {
		pool[min] = ss[1:]
	}
	return s
}

// violate records a guarded bug-detector hit. The caller decides
// whether the state survives (assertion split) or dies (deterministic
// access error).
func (x *Executor) violate(s *state, kind iss.ErrKind, pc, addr uint32, msg string, guard *smt.Expr) {
	if guard.IsFalse() {
		return
	}
	x.violations = append(x.violations, violation{
		kind: kind, pc: pc, addr: addr, msg: msg, guard: guard, depth: s.depth,
	})
	x.accounted = append(x.accounted, guard)
	x.obsViolations.Inc()
}

// drop abandons a state the encoder cannot model. Its guard stays
// accounted (DiffCheck's partition) but the run is no longer complete.
func (x *Executor) drop(s *state, why string) {
	x.unsup[why]++
	x.accounted = append(x.accounted, s.guard)
	x.obsDrops.Inc()
}

// exit retires a state that reached CTE_exit.
func (x *Executor) exit(s *state) {
	x.rep.Exits++
	x.accounted = append(x.accounted, s.guard)
}

// solveSites groups the recorded violations by (kind, pc) bug site and
// issues one reachability query per site: SAT means some input reaches
// the detector within the depth bound, and the model is that input.
func (x *Executor) solveSites(ctx context.Context) {
	type site struct {
		kind iss.ErrKind
		pc   uint32
	}
	groups := map[site][]*violation{}
	order := []site{}
	for i := range x.violations {
		v := &x.violations[i]
		k := site{v.kind, v.pc}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], v)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].pc != order[j].pc {
			return order[i].pc < order[j].pc
		}
		return order[i].kind < order[j].kind
	})
	x.rep.Sites = len(order)

	solver := smt.NewSolver(x.b)
	solver.MaxConflictsPerQuery = x.cfg.MaxConflicts
	solver.SetObs(x.cfg.Obs)
	for _, k := range order {
		if ctx.Err() != nil {
			break
		}
		vs := groups[k]
		guards := make([]*smt.Expr, len(vs))
		for i, v := range vs {
			guards[i] = v.guard
		}
		reach := x.b.OrAll(guards)
		t0 := time.Now()
		var sat, unknown bool
		var model smt.Assignment
		if x.cfg.Cache != nil {
			sat, model, unknown = x.cfg.Cache.Check(solver, []*smt.Expr{reach}, nil)
		} else {
			sat, model, unknown = solver.Check(reach)
		}
		x.obsSolveUS.ObserveDuration(time.Since(t0))
		x.obsQueries.Inc()
		if unknown {
			x.rep.Unknown++
			continue
		}
		if !sat {
			continue
		}
		f := Finding{Kind: k.kind, PC: k.pc, Addr: vs[0].addr, Msg: vs[0].msg, Depth: vs[0].depth, Input: model}
		for _, v := range vs[1:] {
			if v.depth < f.Depth {
				f.Depth, f.Addr, f.Msg = v.depth, v.addr, v.msg
			}
		}
		f.Confirmed = x.confirm(f)
		x.rep.Findings = append(x.rep.Findings, f)
	}
	x.rep.SolverTime = solver.Stats().SolverTime
}

// confirm replays the finding's model through the concolic ISS: the
// run must fail with exactly this (kind, pc) within the depth bound.
// This is the false-positive filter — a model that does not reproduce
// concretely means the encoding and the ISS disagree.
func (x *Executor) confirm(f Finding) bool {
	core := x.snap.Clone()
	core.Input = make(smt.Assignment, len(f.Input))
	for id, v := range f.Input {
		core.Input[id] = v
	}
	core.Bound = 1 << 30 // suppress trace-condition emission
	core.Run(uint64(x.cfg.K))
	return core.Err != nil && core.Err.Kind == f.Kind && core.Err.PC == f.PC
}
