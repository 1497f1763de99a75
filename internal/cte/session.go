package cte

import (
	"context"
	"fmt"
	"time"

	"rvcte/internal/fuzz"
	"rvcte/internal/iss"
	"rvcte/internal/obs"
	"rvcte/internal/qcache"
)

// Mode selects which exploration engine a Session runs.
type Mode int

const (
	// ModeConcolic is the paper's pure concolic engine: every path runs
	// fully symbolically and every trace condition is solved.
	ModeConcolic Mode = iota
	// ModeHybrid is the Driller-style campaign: cheap concrete fuzzing
	// with concolic branch-solving when coverage stalls.
	ModeHybrid
	// ModeBMC is the bounded-model-checking backend: all paths are
	// symbolically executed at once up to a depth bound and each bug
	// site becomes one reachability query (internal/bmc).
	ModeBMC
)

func (m Mode) String() string {
	switch m {
	case ModeConcolic:
		return "concolic"
	case ModeHybrid:
		return "hybrid"
	case ModeBMC:
		return "bmc"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Budget bounds a run along every axis; zero values mean unlimited
// (except MaxInstrPerRun, where zero selects the snapshot's default).
type Budget struct {
	Timeout        time.Duration // wall-clock budget
	MaxPaths       int           // concolic: executed-path budget
	MaxInstrPerRun uint64        // per-execution instruction budget
	// MaxConflictsPerQuery bounds each individual solver query; a query
	// exceeding it counts as an unknown TC instead of blocking the run.
	MaxConflictsPerQuery int
	MaxExecs             uint64 // hybrid: concrete-execution budget
}

// ExploreConfig tunes the concolic engine's search. The other modes
// ignore it (hybrid mode's corpus energy schedule orders its own work).
type ExploreConfig struct {
	// Strategy orders the concolic frontier (BFS/DFS/Random/Coverage).
	Strategy Strategy
	// TrackCoverage aggregates executed PCs into Report.Covered
	// (implied by the Coverage strategy).
	TrackCoverage bool
	// TraceDepth enables the per-core diagnostic instruction ring (the
	// finding's last instructions are exposed via Finding.Trace).
	TraceDepth int
	// Roots seeds the frontier with explicit pending inputs and
	// ExportFrontier drains the unexplored queue into Report.Frontier —
	// how a campaign lease hands its children back to the coordinator's
	// frontier.
	Roots          []Input
	ExportFrontier bool
}

// FuzzConfig tunes hybrid mode; zero values select the documented
// defaults. The other modes ignore it.
type FuzzConfig struct {
	// Batch is the number of concrete executions between stall checks
	// (default 500), and also the stall window: that many executions
	// without new coverage trigger a concolic escalation.
	Batch int
	// DryEscalations stops the run after this many consecutive
	// fruitless escalations (default 3).
	DryEscalations int
	// Seeds are initial corpus inputs (e.g. a persisted corpus dir).
	Seeds [][]byte
}

// CacheConfig wires shared caches into a run.
type CacheConfig struct {
	// Queries, when non-nil, is the SMT query cache consulted before
	// any solver call, shared by every worker (internally
	// synchronized).
	Queries *qcache.Cache
}

// ForkConfig tunes state forking (DESIGN.md "State forking").
type ForkConfig struct {
	// Enabled resumes divergence checkpoints instead of re-executing
	// path prefixes from the snapshot (cmd/cte -fork). For stateful
	// multi-packet guests this is also the cross-packet checkpointing:
	// a divergence inside packet k resumes with packets 1..k-1 already
	// replayed.
	Enabled bool
	// MinPrefix skips capture below this prefix length in instructions
	// (cmd/cte -fork-min-prefix).
	MinPrefix uint64
}

// ProtocolConfig describes a stateful multi-packet campaign: the
// session depth, per-packet symbolic sizing and the guest's
// protocol-state byte. The engines bank edge coverage by that state
// (state × edge product coverage) and re-read it at every guest store
// to it; StateAddr == 0 disables all of it (single-packet behavior).
type ProtocolConfig struct {
	// Packets is the session depth in packets (descriptive: the guest
	// build fixes the actual depth; reports and campaign wire specs
	// carry it).
	Packets int
	// PktMax holds the per-packet symbolic size caps (last repeats).
	PktMax []int
	// StateAddr is the guest address of the protocol-state byte
	// (usually a symbol like "sess_state" resolved via the ELF).
	StateAddr uint32
	// States is the number of protocol states; edge coverage gets one
	// bank per state.
	States int
}

// Config is the unified configuration of a Session: mode, budgets and
// shared knobs at the top level plus per-concern sub-configs.
type Config struct {
	Mode Mode
	// Workers sizes the worker pool: exploration workers in concolic
	// mode, fuzz executors in hybrid mode (which solves its branch flips
	// in path order on one solver). 0 or 1 is one worker, with a
	// deterministic path order; AutoWorkers picks NumCPU.
	Workers int
	Budget  Budget
	// Obs, when non-nil, receives every metric update of the run —
	// engines, solvers, cache, fuzzer, ISS — through the Session's own
	// child registry, and carries the tracer; the final Report carries
	// the snapshot of its registry.
	Obs         *obs.Obs
	Seed        int64 // PRNG seed; runs are reproducible for a fixed seed at Workers <= 1
	StopOnError bool  // stop at the first finding (paper §4.2.3 workflow)
	// Detectors names the iss bug-detector set attached to the
	// snapshot before the run ("heap-guard", "heap-uaf", ..., or "all").
	// nil keeps the snapshot's current set (heap-guard alone for a
	// fresh core).
	Detectors []string

	Explore  ExploreConfig
	Fuzz     FuzzConfig
	Cache    CacheConfig
	Fork     ForkConfig
	BMC      BMCConfig
	Protocol ProtocolConfig
}

// effectiveWorkers resolves Workers to a concrete pool size.
func (c Config) effectiveWorkers() int {
	if c.Workers < 0 {
		return autoWorkers()
	}
	if c.Workers == 0 {
		return 1
	}
	return c.Workers
}

// FuzzStats is the hybrid-mode section of a Report: the concrete
// fuzzer's counters plus the concolic-assist driver's.
type FuzzStats struct {
	fuzz.Stats

	Escalations    int    // concolic escalations triggered by stalls
	ReplayedInstrs uint64 // instructions spent on concolic replays
	FlipsAttempted int    // flip queries issued
	Solves         int    // solved branch flips injected back
	// SkipInitInstrs is the shared initialization prefix executed once
	// and frozen into the working snapshot instead of being re-run on
	// every execution.
	SkipInitInstrs uint64
	// Corpus is the final corpus input data, in admission order (the
	// CLI persists it for corpus-dir warm starts).
	Corpus [][]byte `json:"-"`
}

// Session is the single entry point for every exploration engine: build
// one with NewSession and call Run. The snapshot is never mutated after
// Run starts; every execution runs on a clone (paper §3.1.1).
type Session struct {
	snap   *iss.Core
	cfg    Config        // cfg.Obs is the session bundle on reg
	caller *obs.Obs      // the Config.Obs the Session was built with
	reg    *obs.Registry // the session registry: the store of every run counter
	err    error         // deferred configuration error (unknown detector, ...)

	// OnPath, when set before Run, observes every executed core in
	// concolic mode (serialized, but scheduling-ordered with
	// Workers > 1). The other modes ignore it.
	OnPath func(path int, core *iss.Core)

	hyb *hybrid // hybrid mode: driver state that a later Run resumes
}

// NewSession prepares a run of cfg's Mode over the snapshot, attaching
// the configured detector set and protocol-state coverage wiring to it.
// The Session's metrics go to a child of cfg.Obs's registry (a fresh
// root when cfg.Obs is nil), which wires the engines, solvers, cache,
// fuzzer and the snapshot's ISS counters; every core of the run is
// cloned from the snapshot and inherits them, so the ISS counters
// belong to the last Session built on a snapshot. Configuration errors
// (an unknown detector name) surface as the Report.Stopped of the
// subsequent Run.
func NewSession(snapshot *iss.Core, cfg Config) *Session {
	caller := cfg.Obs
	reg := caller.Registry().Child()
	cfg.Obs = &obs.Obs{Metrics: reg, Tracer: caller.Trace()}
	if cfg.Cache.Queries != nil {
		cfg.Cache.Queries.SetObs(cfg.Obs)
	}
	snapshot.SetObs(cfg.Obs)
	s := &Session{snap: snapshot, cfg: cfg, caller: caller, reg: reg}
	if err := snapshot.AttachDetectorSet(cfg.Detectors); err != nil {
		s.err = err
	}
	if cfg.Protocol.StateAddr != 0 {
		snapshot.ProtoStateAddr = cfg.Protocol.StateAddr
		snapshot.ProtoStates = cfg.Protocol.States
	}
	return s
}

// AddSeeds queues inputs for a hybrid Session's next Run, like
// Config.Fuzz.Seeds: they run as given and join the corpus if they add
// coverage. A campaign worker feeds its peers' corpus deltas in this
// way between leases. The other modes ignore them.
func (s *Session) AddSeeds(seeds [][]byte) {
	if s.hyb != nil {
		s.hyb.fz.AddSeeds(seeds)
		return
	}
	s.cfg.Fuzz.Seeds = append(append([][]byte(nil), s.cfg.Fuzz.Seeds...), seeds...)
}

// Run executes the session until a budget is hit, the state space is
// exhausted, or ctx is canceled (Report.Stopped says which). Workers
// and fuzz batches observe cancellation within one execution, so an
// interrupt tears the run down promptly with a complete Report of the
// work done so far.
//
// In hybrid mode a later Run on the same Session resumes the campaign
// where the previous one stopped: corpus, coverage map, escalation
// bounds, the attempted-flip set and the flip solver carry over.
// Budget.Timeout and MaxExecs apply to each Run, Report.Findings lists
// the findings new in that Run, and Report.Fuzz is cumulative over the
// Session. The other modes start afresh on every Run.
//
// The concolic and hybrid run counters are the change of the Session's
// registry over the Run, so they stay exact when other sessions share
// Config.Obs, even concurrently.
func (s *Session) Run(ctx context.Context) *Report {
	start := time.Now()
	before := s.reg.Snapshot().Counters
	var rep *Report
	switch {
	case s.err != nil:
		rep = &Report{Stopped: "config: " + s.err.Error()}
	case s.cfg.Mode == ModeHybrid:
		if s.hyb == nil {
			s.hyb = newHybrid(s.snap, s.cfg)
		}
		rep = s.hyb.run(ctx)
	case s.cfg.Mode == ModeBMC:
		rep = runBMC(ctx, s.snap, s.cfg)
	default:
		eng := newEngine(s.snap, s.cfg)
		eng.OnPath = s.OnPath
		rep = eng.run(ctx)
	}
	if s.cfg.Mode != ModeBMC {
		countRun(rep, before, s.reg.Snapshot().Counters)
	}
	rep.Mode = s.cfg.Mode
	rep.Detectors = s.snap.DetectorKinds()
	rep.Obs = s.caller.Snapshot()
	if tr := s.cfg.Obs.Trace(); tr != nil {
		tr.Emit(obs.Event{Ev: obs.EvRunEnd,
			DurUS: time.Since(start).Microseconds(), Class: rep.Stopped})
	}
	return rep
}

// countRun fills rep's run counters from the session registry's
// counters before and after one Run. The Fuzz section's concolic-assist
// counters are the absolute values: they are cumulative over the
// Session, like the rest of that section. A BMC Report keeps the
// counts of its bmc.Report instead.
func countRun(rep *Report, before, after map[string]int64) {
	d := func(name string) int64 { return after[name] - before[name] }
	rep.Paths = int(d("cte.paths"))
	rep.Queries = int(d("smt.queries"))
	rep.SolverTime = time.Duration(d("smt.solver_ns"))
	rep.TotalInstr = uint64(d("iss.instr"))
	rep.SatTCs = int(d("cte.sat_tcs"))
	rep.UnsatTCs = int(d("cte.unsat_tcs"))
	rep.UnknownTCs = int(d("cte.unknown_tcs"))
	rep.Forked = int(d("cte.forks"))
	rep.ForkRestarts = int(d("cte.fork_restarts"))
	rep.Pruned = int(d("cte.pruned"))
	if fs := rep.Fuzz; fs != nil {
		fs.Escalations = int(after["hybrid.escalations"])
		fs.ReplayedInstrs = uint64(after["hybrid.replayed_instr"])
		fs.FlipsAttempted = int(after["hybrid.flips_attempted"])
		fs.Solves = int(after["hybrid.solves"])
	}
}
