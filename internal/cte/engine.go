// Package cte implements the concolic exploration engine of the paper
// (§3.1.1): it repeatedly clones the VP, executes an input, collects the
// trace conditions emitted by the concolic ISS, solves each satisfiable
// TC into a new input, and schedules inputs according to a search
// strategy. Generational bounds (à la SAGE) prevent re-exploration of
// already-covered path prefixes.
//
// Exploration runs on a pool of Config.Workers workers; one worker is
// the same loop with a pool of one. Every path is independent by
// construction — the snapshot is frozen once, each worker clones it and
// runs on its own core with its own solver — so only the input queue,
// the dedup set, the coverage map and the report are shared, guarded by
// one mutex. Each TC of a path enters the queue unsolved; the worker
// that claims it solves it on its own solver, drops it when it is unsat
// or duplicates an earlier input, and otherwise runs it, so a stopped
// run spends no solver time on the queue it leaves. A worker merges
// each path before it claims the next, so with one worker the path
// order (and therefore OnPath invocation order and Finding indices) is
// fully deterministic; with more it depends on scheduling, but the
// explored path set, the dedup decisions and the set of findings do
// not. See DESIGN.md ("Parallel exploration") for the clone-safety
// contract.
package cte

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"rvcte/internal/bmc"
	"rvcte/internal/iss"
	"rvcte/internal/obs"
	"rvcte/internal/qcache"
	"rvcte/internal/smt"
)

// Strategy selects which pending input to execute next.
type Strategy int

const (
	// BFS explores inputs in generation order (the paper's default
	// engine has no sophisticated heuristics; FIFO matches it closest).
	BFS Strategy = iota
	// DFS dives into the most recently generated input first.
	DFS
	// Random picks uniformly among pending inputs (seeded, reproducible).
	Random
	// Coverage prefers inputs whose parent path discovered new code
	// (paper §5, future work item 3).
	Coverage
)

func (s Strategy) String() string {
	switch s {
	case BFS:
		return "bfs"
	case DFS:
		return "dfs"
	case Random:
		return "random"
	case Coverage:
		return "coverage"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Input is one pending test case: a model for the symbolic variables
// plus the generational bound below which no TCs are re-emitted.
type Input struct {
	Assignment smt.Assignment
	Bound      int
	Gen        int     // generation (parent's Gen+1)
	Score      float64 // coverage score inherited from the parent path
	// Fork, when non-nil, is the checkpoint of this input's divergence
	// site (iss fork.go), shared read-only by every sibling at that site:
	// executing the input resumes a clone of it with Assignment applied
	// instead of re-running the path prefix from the snapshot. The clone
	// and the reconcretization happen only when a worker claims the
	// input. nil means restart-from-snapshot (the root input, fork mode
	// off, or capture was unsafe at the site).
	Fork *iss.Checkpoint
}

// Finding is an error uncovered during exploration. Concolic findings
// carry the solved variable assignment (Input); hybrid findings carry
// the raw input byte stream (Data) and the execution index (Exec).
type Finding struct {
	Err    *iss.SimError
	Input  smt.Assignment
	Data   []byte // hybrid mode: the input stream that triggered it
	Path   int    // index of the path that hit the error (concolic)
	Exec   uint64 // global execution index of discovery (hybrid)
	Output []byte
	Instrs uint64
	Trace  []iss.TraceEntry // last instructions, when TraceDepth was set
}

func (f Finding) String() string {
	return fmt.Sprintf("path %d: %v (input %v)", f.Path, f.Err, f.Input)
}

// AutoWorkers selects one worker per CPU (Config.Workers).
const AutoWorkers = -1

func autoWorkers() int { return runtime.NumCPU() }

// WorkerStats is the per-worker breakdown of a concolic run.
type WorkerStats struct {
	Paths      int
	Queries    int
	SolverTime time.Duration
}

// Report aggregates the statistics the paper's tables use. It is the
// unified result of every engine: concolic runs fill the path-level
// counters, hybrid runs additionally carry the Fuzz section, BMC runs
// the BMC section; an observability snapshot rides along when the run
// was wired. Session.Run reads the run counters (Paths through Pruned,
// and the Fuzz section's concolic-assist counters) from its registry.
type Report struct {
	Mode       Mode          // which engine produced this report
	Paths      int           // #paths column (concolic)
	Queries    int           // #queries column: solver queries of the solved TCs
	SolverTime time.Duration // stime column (summed across workers)
	WallTime   time.Duration // time column
	TotalInstr uint64        // #instr column (combined over all paths)
	// SatTCs, UnsatTCs and UnknownTCs count the verdicts of the solved
	// TCs. A concolic run solves a TC when a worker claims its child (or
	// exports it), so the TCs still queued at a stop count in none of
	// them; the cte.tcs counter has every TC emitted.
	SatTCs     int
	UnsatTCs   int // proven unsatisfiable
	UnknownTCs int // solver budget exhausted — not proven either way
	// Forked counts paths that resumed a divergence checkpoint instead
	// of restarting from the snapshot; ForkRestarts counts claimed
	// children that wanted a fork but fell back to a restart (capture
	// skipped at an unsafe site). Both stay zero with Fork.Enabled off.
	Forked       int
	ForkRestarts int
	Findings     []Finding
	Pruned       int
	Exhausted    bool // queue drained (full exploration)
	// Frontier holds the pending inputs left unexplored when the run
	// stopped (Explore.ExportFrontier only): what a campaign lease hands
	// back to the coordinator's one FIFO frontier per campaign.
	Frontier []Input
	// Stopped says why the run ended: "exhausted" | "path-budget" |
	// "exec-budget" | "timeout" | "stop-on-error" | "canceled" | "dry".
	Stopped string
	// Covered holds every PC executed on any path (when
	// Explore.TrackCoverage or the Coverage strategy is active).
	Covered map[uint32]struct{}
	// Workers is the resolved pool size; PerWorker holds the per-worker
	// breakdown of concolic runs (one row per worker).
	Workers   int
	PerWorker []WorkerStats
	// Detectors lists the bug-detector kinds that were attached for the
	// run — the expansion of Config.Detectors ("all" resolved, defaults
	// applied), so reports are self-describing.
	Detectors []string
	// Cache holds the query-cache counters when Cache.Queries was set
	// (nil otherwise). Queries then counts only the SAT queries that
	// missed the cache.
	Cache *qcache.Stats
	// Fuzz is the hybrid-mode section (nil for pure concolic runs).
	Fuzz *FuzzStats
	// BMC is the bounded-model-checking section (nil for other modes).
	BMC *bmc.Report
	// Obs is the final snapshot of the caller's Config.Obs registry (nil
	// when unwired). When no other session shares that registry its
	// totals equal the run counters above.
	Obs *obs.Snapshot
}

func (r *Report) String() string {
	s := fmt.Sprintf("paths=%d queries=%d stime=%.2fs time=%.2fs instr=%d sat=%d unsat=%d unknown=%d findings=%d",
		r.Paths, r.Queries, r.SolverTime.Seconds(), r.WallTime.Seconds(), r.TotalInstr,
		r.SatTCs, r.UnsatTCs, r.UnknownTCs, len(r.Findings))
	if r.Cache != nil {
		s += fmt.Sprintf(" cache[hit=%d eval=%d subsume=%d solve=%d]",
			r.Cache.Hits, r.Cache.EvalHits, r.Cache.SubsumeHits, r.Cache.SolverCalls)
	}
	return s
}

// engine drives concolic exploration from a VP snapshot (the
// ModeConcolic half of a Session).
type engine struct {
	Builder  *smt.Builder
	Snapshot *iss.Core
	Cfg      Config

	// OnPath observes every executed core (Session.OnPath). The pool
	// invokes it under the run lock, so the callback never races with
	// itself, but with several workers the order is scheduling-dependent.
	OnPath func(path int, core *iss.Core)

	// Observability handles on the Session's registry, the store the
	// Report's run counters are read from. cte.tcs counts the TCs
	// emitted (queued as pending children) and cte.frontier the items
	// queued, pending or solved, after each merge.
	tcs                                                    verdicts
	obsTCs, obsPaths, obsPruned, obsFindings               *obs.Counter
	obsForks, obsForkCaptures, obsForkRestarts, obsApplyNS *obs.Counter
	frontierG, coverG, forkLiveG                           *obs.Gauge
	pathHist, forkSuffixHist                               *obs.Histogram
	tracer                                                 *obs.Tracer
}

// newEngine creates the concolic engine around a prepared VP snapshot.
// The snapshot is never mutated; every path runs on a clone (§3.1.1).
func newEngine(snapshot *iss.Core, cfg Config) *engine {
	m := cfg.Obs.Registry()
	return &engine{
		Builder:         snapshot.B,
		Snapshot:        snapshot,
		Cfg:             cfg,
		tcs:             newVerdicts(m),
		obsTCs:          m.Counter("cte.tcs"),
		obsPaths:        m.Counter("cte.paths"),
		obsPruned:       m.Counter("cte.pruned"),
		obsFindings:     m.Counter("cte.findings"),
		obsForks:        m.Counter("cte.forks"),
		obsForkCaptures: m.Counter("cte.fork_captures"),
		obsForkRestarts: m.Counter("cte.fork_restarts"),
		obsApplyNS:      m.Counter("cte.apply_ns"),
		forkSuffixHist:  m.Histogram("cte.fork_suffix_instr", obs.LatencyBoundsUS),
		frontierG:       m.Gauge("cte.frontier"),
		coverG:          m.Gauge("cte.cover_pcs"),
		forkLiveG:       m.Gauge("cte.fork_live"),
		pathHist:        m.Histogram("cte.path_us", obs.LatencyBoundsUS),
		tracer:          cfg.Obs.Trace(),
	}
}

// pathResult is everything one executed path contributes back to the
// shared exploration state. It is produced without touching the pool's
// state (only the atomic metric counters), so workers can build it
// outside the run lock.
type pathResult struct {
	core     *iss.Core
	children []item // one pending child per trace condition; Score filled by the merger
	forked   bool   // this path resumed a checkpoint (suffix-only execution)
}

// executePath clones the snapshot, or resumes the input's checkpoint,
// runs one input and turns each of its trace conditions into a pending
// child; the worker that claims a child solves its condition. Only the
// (frozen) snapshot, the read-only checkpoints and the internally-locked
// builder are shared; the caller merges the result under its own
// synchronization. pathID is the claim-order index used for trace
// events (it matches Report path indices only at Workers<=1).
func (e *engine) executePath(in Input, pathID int) pathResult {
	var core *iss.Core
	forked := in.Fork != nil
	if forked {
		core = in.Fork.Resume(in.Bound)
		e.applyModel(core, in.Assignment)
	} else {
		core = e.Snapshot.Clone()
		core.Input = in.Assignment
		core.Bound = in.Bound
	}
	core.CaptureForks = e.Cfg.Fork.Enabled
	core.ForkMinPrefix = e.Cfg.Fork.MinPrefix
	if e.Cfg.Explore.Strategy == Coverage || e.Cfg.Explore.TrackCoverage {
		core.TrackCoverage = true
	}
	if e.Cfg.Explore.TraceDepth > 0 {
		core.TraceDepth = e.Cfg.Explore.TraceDepth
	}
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{Ev: obs.EvPathStart, Path: pathID})
	}
	pathStart := time.Now()
	// Count only instructions executed during this run (the snapshot may
	// already carry pre-executed initialization, per the clone-after-init
	// optimization).
	// For a forked path InstrCount already covers the inherited prefix, so
	// this counts only the re-executed suffix — the saving fork mode buys.
	startInstr := core.InstrCount
	core.Run(e.Cfg.Budget.MaxInstrPerRun)
	instrs := core.InstrCount - startInstr
	e.obsForkCaptures.Add(int64(core.Checkpoints()))
	res := pathResult{core: core, forked: forked}
	dur := time.Since(pathStart)
	e.pathHist.ObserveDuration(dur)
	if forked {
		e.forkSuffixHist.Observe(int64(instrs))
	}
	if e.tracer != nil {
		status := "ok"
		if core.Err != nil {
			status = core.Err.Kind.String()
		} else if core.Exited {
			status = "exit"
		}
		e.tracer.Emit(obs.Event{Ev: obs.EvPathEnd, Path: pathID,
			DurUS: dur.Microseconds(), N: int64(instrs), Result: status})
	}

	if e.Cfg.StopOnError {
		if f, prune := findingOf(core, 0); f != nil && !prune {
			// The run stops here anyway; queue no children.
			return res
		}
	}
	res.children = make([]item, len(core.Trace))
	for i, tc := range core.Trace {
		ch := item{
			Input: Input{Bound: tc.SiteIdx + 1, Gen: in.Gen + 1},
			tc:    tc,
			epc:   core.EPC,
			hint:  in.Assignment,
		}
		if e.Cfg.Fork.Enabled {
			// The child will resume the site's checkpoint; a nil one
			// means capture was skipped at an unsafe site and the child
			// restarts from the snapshot instead.
			ch.Fork = core.Checkpoint(tc.SiteIdx)
		}
		res.children[i] = ch
	}
	return res
}

// solve decides a pending child's trace condition on solver. A SAT
// model becomes the child's input, returned with its dedup key.
func (e *engine) solve(solver *smt.Solver, it item) (Input, string, bool) {
	model, ok := e.tcs.solve(e.Cfg.Cache.Queries, solver, it.epc, it.tc, it.hint)
	if !ok {
		return Input{}, "", false
	}
	in := it.Input
	in.Assignment = model
	return in, InputKey(e.Builder, in), true
}

// applyModel installs a claimed forked child's input into its resumed
// core, counting the time in cte.apply_ns.
func (e *engine) applyModel(c *iss.Core, model smt.Assignment) {
	t0 := time.Now()
	c.ApplyModel(model)
	e.obsApplyNS.Add(time.Since(t0).Nanoseconds())
}

// newSolver creates a solver on b with the run's per-query conflict
// budget, wired into the run's observability bundle. Every concolic
// worker owns one; a hybrid Session solves its flips on one.
func newSolver(b *smt.Builder, cfg Config) *smt.Solver {
	s := smt.NewSolver(b)
	s.MaxConflictsPerQuery = cfg.Budget.MaxConflictsPerQuery
	s.SetObs(cfg.Obs)
	return s
}

// verdicts are the cte.sat_tcs, cte.unsat_tcs and cte.unknown_tcs
// counters of trace-condition verdicts.
type verdicts struct{ sat, unsat, unknown *obs.Counter }

func newVerdicts(m *obs.Registry) verdicts {
	return verdicts{m.Counter("cte.sat_tcs"), m.Counter("cte.unsat_tcs"), m.Counter("cte.unknown_tcs")}
}

// solve decides one trace condition: the path prefix EPC[:tc.EPCLen]
// conjoined with tc.Cond. The query goes through the query cache qc when
// one is configured, else straight to solver; hint is the incumbent
// input, which satisfied the whole prefix and so enables the cache's
// independence slicing. The verdict — sat, unsat, or unknown when the
// per-query conflict budget ran out — is counted in v; the model is
// returned for sat only.
func (v verdicts) solve(qc *qcache.Cache, solver *smt.Solver, epc []*smt.Expr, tc iss.TraceCond, hint smt.Assignment) (smt.Assignment, bool) {
	conds := make([]*smt.Expr, 0, tc.EPCLen+1)
	conds = append(conds, epc[:tc.EPCLen]...)
	conds = append(conds, tc.Cond)
	var sat, unknown bool
	var model smt.Assignment
	if qc != nil {
		sat, model, unknown = qc.Check(solver, conds, hint)
	} else {
		sat, model, unknown = solver.Check(conds...)
	}
	switch {
	case unknown:
		v.unknown.Inc()
	case !sat:
		v.unsat.Inc()
	default:
		v.sat.Inc()
		return model, true
	}
	return nil, false
}

// findingOf classifies a halted core: a Finding for a hard error, prune
// for an assume failure, neither for clean exits and budget exhaustion.
func findingOf(core *iss.Core, path int) (f *Finding, prune bool) {
	if core.Err == nil {
		return nil, false
	}
	switch core.Err.Kind {
	case iss.ErrAssumeFail:
		return nil, true
	case iss.ErrLimit:
		// Budget exhaustion is not a bug; the paper bounds the search
		// the same way (switch after one packet).
		return nil, false
	}
	return &Finding{
		Err:    core.Err,
		Input:  core.Input,
		Path:   path,
		Output: core.Output,
		Instrs: core.InstrCount,
		Trace:  core.RecentTrace(),
	}, false
}

// seedFrontier fills a fresh frontier from Explore.Roots (dedup-seeded
// so a later child identical to a root is dropped), or with the default
// empty-assignment root when no explicit roots were configured.
func (e *engine) seedFrontier(front *frontier, seen map[string]bool) {
	if len(e.Cfg.Explore.Roots) == 0 {
		front.push(item{Input: Input{Assignment: smt.Assignment{}}})
		return
	}
	for _, r := range e.Cfg.Explore.Roots {
		if seen != nil {
			seen[InputKey(e.Builder, r)] = true
		}
		front.push(item{Input: r})
	}
}

// recordFinding mirrors one finding into the observability layer.
func (e *engine) recordFinding(f *Finding) {
	e.obsFindings.Inc()
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{Ev: obs.EvFinding, Path: f.Path,
			PC: f.Err.PC, Err: f.Err.Error()})
	}
}

// DescribeInput renders an input assignment with variable names, sorted,
// for stable test output and tool display: "{name=value, ...}".
func DescribeInput(b *smt.Builder, in smt.Assignment) string {
	var sb strings.Builder
	writeVars(&sb, namedVars(b, in))
	return sb.String()
}
