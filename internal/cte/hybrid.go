package cte

import (
	"context"
	"sort"
	"sync"
	"time"
	"unsafe"

	"rvcte/internal/fuzz"
	"rvcte/internal/iss"
	"rvcte/internal/obs"
	"rvcte/internal/smt"
)

// hybrid is the driver state for one run.
type hybrid struct {
	cfg     Config
	snap    *iss.Core // working snapshot (possibly advanced past init)
	builder *smt.Builder
	fz      *fuzz.Fuzzer
	solvers []*smt.Solver
	// attempted dedups flip queries by the full (path prefix, condition)
	// conjunction — a condition alone is not enough, since it may be
	// unsat under one prefix and sat under another.
	attempted map[string]bool
	rep       *Report
	fs        *FuzzStats

	// Observability handles (Config.Obs); nil-safe when unwired.
	obsEsc, obsFlips, obsSolves, obsReplayed *obs.Counter
	tracer                                   *obs.Tracer
}

// runHybrid executes a hybrid fuzzing campaign over the snapshot and
// reports in the unified Report shape (Fuzz section filled).
func runHybrid(ctx context.Context, snapshot *iss.Core, cfg Config) *Report {
	cfg.Workers = cfg.effectiveWorkers()
	if cfg.Fuzz.Batch <= 0 {
		cfg.Fuzz.Batch = 500
	}
	if cfg.Fuzz.StallExecs == 0 {
		cfg.Fuzz.StallExecs = uint64(cfg.Fuzz.Batch)
	}
	if cfg.Fuzz.MaxFlipsPerEscalation <= 0 {
		cfg.Fuzz.MaxFlipsPerEscalation = 64
	}
	if cfg.Fuzz.DryEscalations <= 0 {
		cfg.Fuzz.DryEscalations = 3
	}

	start := time.Now()
	snapshot.Freeze()
	working, skipped := advancePastInput(snapshot)

	h := &hybrid{
		cfg:       cfg,
		snap:      working,
		builder:   snapshot.B,
		attempted: make(map[string]bool),
		rep:       &Report{Mode: ModeHybrid, Workers: cfg.Workers},
		fs:        &FuzzStats{SkipInitInstrs: skipped},
	}
	h.rep.Fuzz = h.fs
	if m := cfg.Obs.Registry(); m != nil {
		h.obsEsc = m.Counter("hybrid.escalations")
		h.obsFlips = m.Counter("hybrid.flips_attempted")
		h.obsSolves = m.Counter("hybrid.solves")
		h.obsReplayed = m.Counter("hybrid.replayed_instr")
		h.tracer = cfg.Obs.Trace()
	}
	h.fz = fuzz.New(working, fuzz.Options{
		Seed:           cfg.Seed,
		Workers:        cfg.Workers,
		MaxInstrPerRun: cfg.Budget.MaxInstrPerRun,
		MapBits:        cfg.Fuzz.MapBits,
		States:         cfg.Protocol.States,
		Seeds:          cfg.Fuzz.Seeds,
		Obs:            cfg.Obs,
	})
	for i := 0; i < cfg.Workers; i++ {
		h.solvers = append(h.solvers, newSolver(snapshot.B, cfg))
	}

	dry := 0
	for {
		if ctx.Err() != nil {
			h.rep.Stopped = "canceled"
			break
		}
		st := h.fz.Stats()
		if cfg.Budget.MaxExecs > 0 && st.Execs >= cfg.Budget.MaxExecs {
			h.rep.Stopped = "exec-budget"
			break
		}
		if cfg.Budget.Timeout > 0 && time.Since(start) > cfg.Budget.Timeout {
			h.rep.Stopped = "timeout"
			break
		}
		if h.fz.SinceNewCover() >= cfg.Fuzz.StallExecs {
			// Coverage stalled: escalate the most deserving corpus entry.
			// A fruitless escalation retries the next entry immediately —
			// fuzz batches are only worth their cost when there are solved
			// inputs to execute or coverage is still moving.
			if cfg.Budget.MaxEscalations > 0 && h.fs.Escalations >= cfg.Budget.MaxEscalations {
				h.rep.Stopped = "escalation-budget"
				break
			}
			data, bound, ok := h.fz.EscalationTarget()
			if !ok {
				data = []byte{} // empty corpus: escalate the baseline input
			}
			h.fs.Escalations++
			h.obsEsc.Inc()
			if h.escalate(ctx, data, bound) == 0 {
				dry++
				if dry >= cfg.Fuzz.DryEscalations {
					h.rep.Stopped = "dry"
					break
				}
				continue
			}
			dry = 0
		}
		batch := cfg.Fuzz.Batch
		if cfg.Budget.MaxExecs > 0 && st.Execs+uint64(batch) > cfg.Budget.MaxExecs {
			batch = int(cfg.Budget.MaxExecs - st.Execs)
		}
		batchStart := time.Now()
		h.fz.RunBatchContext(ctx, batch)
		if h.tracer != nil {
			after := h.fz.Stats()
			h.tracer.Emit(obs.Event{Ev: obs.EvFuzzBatch,
				DurUS: time.Since(batchStart).Microseconds(),
				N:     int64(after.Execs - st.Execs), N2: int64(after.Edges)})
		}
		if cfg.StopOnError && len(h.fz.Findings()) > 0 {
			h.rep.Stopped = "stop-on-error"
			break
		}
	}

	h.fs.Stats = h.fz.Stats()
	for _, f := range h.fz.Findings() {
		h.rep.Findings = append(h.rep.Findings, Finding{
			Err: f.Err, Data: f.Data, Exec: f.Exec,
			Output: f.Output, Instrs: f.Instrs,
		})
		if h.tracer != nil {
			h.tracer.Emit(obs.Event{Ev: obs.EvFinding,
				PC: f.Err.PC, Err: f.Err.Error(), N: int64(f.Exec)})
		}
	}
	for _, e := range h.fz.Corpus() {
		h.fs.Corpus = append(h.fs.Corpus, e.Data)
	}
	addSolverStats(h.rep, h.solvers)
	h.rep.WallTime = time.Since(start)
	if cfg.Cache.Queries != nil {
		st := cfg.Cache.Queries.Stats()
		h.rep.Cache = &st
	}
	return h.rep
}

// escalate replays one fuzz input concolically (from its generational
// bound, so already-flipped sites stay quiet), solves the unattempted
// branch flips along its path across the worker pool, and injects every
// model back into the fuzzer. Returns the number of injected inputs.
func (h *hybrid) escalate(ctx context.Context, data []byte, bound int) int {
	escStart := time.Now()
	c := h.snap.Clone()
	// Fork capture stays off for escalation replays: the hybrid driver
	// consumes only the replay's trace conditions (the flip models feed
	// the fuzzer as byte streams), never a resumable checkpoint.
	c.CaptureForks = false
	if data == nil {
		data = []byte{}
	}
	c.FuzzInput = data // replay mode: stream supplies bytes, vars are minted
	c.Bound = bound
	// Replays charge iss.instr (total simulated work) but not iss.execs,
	// which counts fuzz executions only.
	c.ObsExecs = nil
	startInstr := c.InstrCount
	c.Run(h.cfg.Budget.MaxInstrPerRun)
	h.fs.ReplayedInstrs += c.InstrCount - startInstr
	h.obsReplayed.Add(int64(c.InstrCount - startInstr))

	// Flip-target selection. Two filters pick which trace conditions are
	// worth solver time this escalation:
	//
	//  1. Dedup by the full (path prefix, condition) conjunction — a
	//     condition alone is not enough, since it may be unsat under one
	//     prefix and sat under another. Expressions are interned with
	//     deterministic variable ids, so the key dedups across replays of
	//     different inputs sharing a path prefix.
	//
	//  2. Last-occurrence-per-group: a loop body emits one flip TC per
	//     iteration at the same branch PC, but only the deepest one
	//     advances the trip count — the earlier ones re-derive shorter
	//     (already covered) executions. Likewise a concretization ladder
	//     emits one TC per rung at the same site, and the last rung is
	//     the largest value. Per group (branch PC, or site index for
	//     ladders) only the last not-yet-attempted occurrence is solved;
	//     re-escalations walk backwards through the remainder.
	//
	// The EPC prefix part of the dedup key is shared between trace
	// conditions, so it is rendered once and sliced.
	epcKey := make([]byte, 0, 8*len(c.EPC))
	for _, e := range c.EPC {
		p := uintptr(unsafe.Pointer(e))
		for i := 0; i < 8; i++ {
			epcKey = append(epcKey, byte(p>>(8*i)))
		}
	}
	type cand struct {
		trace int
		key   string
	}
	chosen := make(map[uint64]cand)
	for ti, tc := range c.Trace {
		p := uintptr(unsafe.Pointer(tc.Cond))
		kb := append(epcKey[:8*tc.EPCLen:8*tc.EPCLen],
			byte(p), byte(p>>8), byte(p>>16), byte(p>>24),
			byte(p>>32), byte(p>>40), byte(p>>48), byte(p>>56))
		key := string(kb)
		if h.attempted[key] {
			continue
		}
		group := uint64(tc.FlipFrom)
		if tc.FlipFrom == 0 {
			group = 1<<32 | uint64(tc.SiteIdx)
		}
		chosen[group] = cand{trace: ti, key: key} // later occurrences win
	}
	var picks []cand
	for _, cd := range chosen {
		picks = append(picks, cd)
	}
	// Uncovered flip edges first (a branch polarity concrete fuzzing has
	// never executed is the highest-value query), then path order; both
	// classes stay within the per-escalation cap.
	sort.Slice(picks, func(i, j int) bool {
		ci, cj := c.Trace[picks[i].trace], c.Trace[picks[j].trace]
		ui := ci.FlipTo != 0 && !h.fz.EdgeCovered(ci.FlipFrom, ci.FlipTo)
		uj := cj.FlipTo != 0 && !h.fz.EdgeCovered(cj.FlipFrom, cj.FlipTo)
		if ui != uj {
			return ui
		}
		return picks[i].trace < picks[j].trace
	})
	var jobs []iss.TraceCond
	for _, pk := range picks {
		if len(jobs) >= h.cfg.Fuzz.MaxFlipsPerEscalation {
			break
		}
		h.attempted[pk.key] = true
		jobs = append(jobs, c.Trace[pk.trace])
	}
	h.fs.FlipsAttempted += len(jobs)
	h.obsFlips.Add(int64(len(jobs)))
	if len(jobs) == 0 {
		return 0
	}

	models := make([]smt.Assignment, len(jobs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	workers := h.cfg.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	tallies := make([]tcTally, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(solver *smt.Solver, tcs *tcTally) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return // unclaimed flips stay unsolved; the driver stops next
				}
				mu.Lock()
				if next >= len(jobs) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				// The incumbent replay satisfied the whole prefix: its
				// input is the slicing hint, as in the concolic engine.
				// Each index is written by exactly one worker.
				models[i], _ = tcs.solve(h.cfg.Cache.Queries, solver, c.EPC, jobs[i], c.Input)
			}
		}(h.solvers[w], &tallies[w])
	}
	wg.Wait()
	for _, t := range tallies {
		h.rep.addTCs(t)
	}

	// Inject in path order so the campaign stays deterministic at -j 1.
	// Each solved input carries the flipped site's generation as its
	// bound (SAGE semantics: re-escalation explores past it only).
	injected := 0
	for i, m := range models {
		if m == nil {
			continue
		}
		h.fz.Inject(solvedInput(data, c.SymOrder, h.builder, m), jobs[i].SiteIdx+1)
		injected++
		if h.tracer != nil {
			h.tracer.Emit(obs.Event{Ev: obs.EvFlipSolved, PC: jobs[i].FlipTo})
		}
	}
	h.fs.Solves += injected
	h.obsSolves.Add(int64(injected))
	if h.tracer != nil {
		h.tracer.Emit(obs.Event{Ev: obs.EvEscalation,
			DurUS: time.Since(escStart).Microseconds(),
			N:     int64(len(jobs)), N2: int64(injected)})
	}
	return injected
}

// solvedInput maps a solver model back onto the input byte stream: the
// replay's SymOrder records which variable consumed which stream offset,
// so model values overwrite those bytes (little-endian) and unconstrained
// positions keep the incumbent's bytes.
func solvedInput(base []byte, order []int, b *smt.Builder, model smt.Assignment) []byte {
	out := append([]byte(nil), base...)
	pos := 0
	for _, id := range order {
		w := (int(b.VarWidth(id)) + 7) / 8
		for len(out) < pos+w {
			out = append(out, 0)
		}
		if v, ok := model[id]; ok {
			for i := 0; i < w; i++ {
				out[pos+i] = byte(v >> (8 * i))
			}
		}
		pos += w
	}
	return out
}

// advancePastInput implements the skip-init optimization: a concrete
// probe locates the instruction that consumes the first input byte; the
// shared prefix before it is executed once on a fresh clone, which is
// frozen and becomes the working snapshot for every subsequent
// execution and replay. Sound because no symbolic state can exist
// before the first make_symbolic. Returns the working snapshot and the
// skipped instruction count (0 = no input consumed or nothing to skip).
func advancePastInput(snap *iss.Core) (*iss.Core, uint64) {
	probe := snap.Clone()
	probe.ConcreteOnly = true
	probe.FuzzInput = []byte{}
	var steps uint64
	const probeBudget = 50_000_000
	for !probe.Halted() && probe.FuzzPos == 0 && steps < probeBudget {
		probe.Step()
		steps++
	}
	if probe.FuzzPos == 0 || steps < 2 {
		return snap, 0 // never consumes input (or nothing worth skipping)
	}
	skip := steps - 1 // stop just before the consuming instruction
	adv := snap.Clone()
	for i := uint64(0); i < skip; i++ {
		adv.Step()
	}
	adv.Freeze()
	return adv, skip
}
