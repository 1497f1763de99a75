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
	MaxEscalations       int    // hybrid: concolic escalation budget
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
	// the campaign coordinator's shard hand-off.
	Roots          []Input
	ExportFrontier bool
}

// FuzzConfig tunes hybrid mode; zero values select the documented
// defaults. The other modes ignore it.
type FuzzConfig struct {
	// Batch is the number of concrete executions between stall checks
	// (default 500). StallExecs is the number of executions without new
	// coverage that triggers a concolic escalation (default Batch).
	Batch      int
	StallExecs uint64
	MapBits    int // edge map size per protocol-state bank (log2; default 16)
	// MaxFlipsPerEscalation bounds the branch flips solved per
	// escalation (default 64). DryEscalations stops the run after this
	// many consecutive fruitless escalations (default 3).
	MaxFlipsPerEscalation int
	DryEscalations        int
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
	// Probe, when set, observes every protocol-state change at the
	// next instruction boundary — the inter-packet guest-state probe
	// (diagnostics, campaign progress displays).
	Probe func(core *iss.Core, state uint32)
}

// Config is the unified configuration of a Session: mode, budgets and
// shared knobs at the top level plus per-concern sub-configs.
type Config struct {
	Mode Mode
	// Workers sizes the worker pool: exploration workers in concolic
	// mode, fuzz executors plus flip-solve workers in hybrid mode. 0 or
	// 1 is one worker, with a deterministic path order; AutoWorkers
	// picks NumCPU.
	Workers int
	Budget  Budget
	// Obs, when non-nil, wires the whole run — engines, solvers, cache,
	// fuzzer, ISS — into one observability bundle; the final Report
	// carries its snapshot.
	Obs         *obs.Obs
	Seed        int64 // PRNG seed; runs are reproducible for a fixed seed at Workers <= 1
	StopOnError bool  // stop at the first finding (paper §4.2.3 workflow)
	// Detectors names the iss bug-detector set attached to the
	// snapshot before the run ("heap-guard", "heap-uaf", ..., or "all").
	// nil keeps the snapshot's current set (iss.DefaultDetectors for a
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
	snap *iss.Core
	cfg  Config
	err  error // deferred configuration error (unknown detector, ...)

	// OnPath, when set before Run, observes every executed core in
	// concolic mode (serialized, but scheduling-ordered with
	// Workers > 1). The other modes ignore it.
	OnPath func(path int, core *iss.Core)
}

// NewSession prepares a run of cfg's Mode over the snapshot, attaching
// the configured detector set, protocol-state coverage wiring and the
// ISS counters of cfg.Obs to it (every core of the run is cloned from
// the snapshot and inherits them). Configuration errors (an unknown
// detector name) surface as the Report.Stopped of the subsequent Run.
func NewSession(snapshot *iss.Core, cfg Config) *Session {
	if cfg.Cache.Queries != nil {
		cfg.Cache.Queries.SetObs(cfg.Obs)
	}
	snapshot.SetObs(cfg.Obs)
	s := &Session{snap: snapshot, cfg: cfg}
	if err := snapshot.AttachDetectorSet(cfg.Detectors); err != nil {
		s.err = err
	}
	if cfg.Protocol.StateAddr != 0 {
		snapshot.ProtoStateAddr = cfg.Protocol.StateAddr
		snapshot.ProtoStates = cfg.Protocol.States
		snapshot.ProtoProbe = cfg.Protocol.Probe
	}
	return s
}

// Run executes the session until a budget is hit, the state space is
// exhausted, or ctx is canceled (Report.Stopped says which). Workers
// and fuzz batches observe cancellation within one execution, so an
// interrupt tears the run down promptly with a complete Report of the
// work done so far.
func (s *Session) Run(ctx context.Context) *Report {
	start := time.Now()
	var rep *Report
	switch {
	case s.err != nil:
		rep = &Report{Stopped: "config: " + s.err.Error()}
	case s.cfg.Mode == ModeHybrid:
		rep = runHybrid(ctx, s.snap, s.cfg)
	case s.cfg.Mode == ModeBMC:
		rep = runBMC(ctx, s.snap, s.cfg)
	default:
		eng := newEngine(s.snap, s.cfg)
		eng.OnPath = s.OnPath
		rep = eng.run(ctx)
	}
	rep.Mode = s.cfg.Mode
	rep.Detectors = s.snap.DetectorKinds()
	rep.Obs = s.cfg.Obs.Snapshot()
	if tr := s.cfg.Obs.Trace(); tr != nil {
		tr.Emit(obs.Event{Ev: obs.EvRunEnd,
			DurUS: time.Since(start).Microseconds(), Class: rep.Stopped})
	}
	return rep
}
