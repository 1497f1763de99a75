package campaign

import (
	"context"
	"fmt"
	"time"

	"rvcte/internal/cte"
	"rvcte/internal/fuzz"
	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/qcache"
	"rvcte/internal/relf"
	"rvcte/internal/smt"
)

// Runner executes leases for one campaign: it holds the worker-local
// long-lived state — the SMT builder, the VP snapshot (never mutated;
// sessions clone it), the query cache, and the sync bookkeeping. One
// Runner per campaign per worker process.
type Runner struct {
	spec  Spec
	b     *smt.Builder
	snap  *iss.Core
	elf   *relf.File
	qc    *qcache.Cache
	qsent map[uint64]bool    // qcache keys already exchanged with the coordinator
	qseq  int                // sync cursor into the coordinator's entry list
	cseq  int                // sync cursor into the coordinator's corpus
	seeds [][]byte           // synced corpus (hybrid seeds)
	fixed uint               // fixed-bug mask, for classification
	proto cte.ProtocolConfig // stateful guests: resolved protocol-state wiring
}

// NewRunner builds the worker-local state for spec. The program name
// resolves through the same table as cmd/cte's -prog, so every worker
// of a campaign executes a bit-identical guest.
func NewRunner(spec Spec) (*Runner, error) {
	p, err := guest.ProgramFor(spec.Prog, guest.ProgramOpts{
		Fix: spec.FixList, PktMax: spec.PktMax, Pkts: spec.Pkts, PktCaps: spec.PktCaps,
	})
	if err != nil {
		return nil, err
	}
	fixed, _ := guest.ParseFixList(spec.FixList, 1, 9)
	b := smt.NewBuilder()
	snap, elf, err := guest.NewCore(b, p)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		spec:  spec,
		b:     b,
		snap:  snap,
		elf:   elf,
		qc:    qcache.New(b, qcache.Options{}),
		qsent: map[uint64]bool{},
		fixed: fixed,
	}
	// Stateful guests publish their protocol-state symbol; resolving it
	// here means every worker banks edge coverage identically.
	if p.Proto.StateSym != "" {
		if addr, ok := elf.Symbol(p.Proto.StateSym); ok {
			r.proto = cte.ProtocolConfig{
				Packets:   p.Proto.Pkts,
				PktMax:    p.Proto.Caps,
				StateAddr: addr,
				States:    p.Proto.States,
			}
		}
	}
	return r, nil
}

// Cursors returns the sync cursors to send with the next lease request.
func (r *Runner) Cursors() (qseq, cseq int) { return r.qseq, r.cseq }

// Sync merges a lease response's query-cache and corpus deltas into the
// local state and advances the cursors. Entries received from the
// coordinator count as already-exchanged, so they are not echoed back.
func (r *Runner) Sync(l Lease) {
	for _, e := range l.QEntries {
		r.qsent[e.Key] = true
	}
	r.qc.ImportEntries(l.QEntries)
	if l.QSeq > r.qseq {
		r.qseq = l.QSeq
	}
	if len(l.Corpus) > 0 {
		r.seeds, _ = fuzz.MergeInputs(r.seeds, l.Corpus)
	}
	if l.CSeq > r.cseq {
		r.cseq = l.CSeq
	}
}

// Run executes one lease and assembles its Result. Concolic leases run
// exactly the leased inputs (roots + path budget + BFS) sequentially,
// so the i-th executed path is the i-th leased input and every record
// carries its input's canonical key; hybrid leases run one fuzzing
// timebox seeded with the synced corpus. Cancelling ctx (the heartbeat
// loop does, on lease rejection) winds the session down promptly; the
// partial result is still valid and worth reporting.
func (r *Runner) Run(ctx context.Context, l Lease) Result {
	if r.spec.Mode == "hybrid" {
		return r.runHybrid(ctx, l)
	}
	return r.runConcolic(ctx, l)
}

func (r *Runner) runConcolic(ctx context.Context, l Lease) Result {
	start := time.Now()
	roots := make([]cte.Input, len(l.Inputs))
	for i, wi := range l.Inputs {
		roots[i] = cte.ImportInput(r.b, wi)
	}
	cfg := cte.Config{
		Workers: 1, // one worker: path i is leased input i
		Budget: cte.Budget{
			MaxPaths:             len(roots),
			MaxInstrPerRun:       r.spec.MaxInstr,
			MaxConflictsPerQuery: r.spec.MaxConflicts,
		},
		Cache:       cte.CacheConfig{Queries: r.qc},
		Seed:        r.spec.Seed,
		StopOnError: r.spec.StopOnError,
		Detectors:   r.spec.Detectors,
		Explore: cte.ExploreConfig{
			Strategy:       cte.BFS,
			Roots:          roots,
			ExportFrontier: true,
		},
		Protocol: r.proto,
	}
	res := Result{Lease: l.ID}
	sess := cte.NewSession(r.snap, cfg)
	idx := 0
	sess.OnPath = func(_ int, c *iss.Core) {
		if idx >= len(l.Inputs) {
			return
		}
		rec := PathRecord{Key: l.Inputs[idx].Key(), Exit: c.ExitCode, Output: string(c.Output)}
		if c.Err != nil {
			rec.Err = c.Err.Error()
		}
		res.Records = append(res.Records, rec)
		idx++
	}
	rep := sess.Run(ctx)

	for _, ch := range rep.Frontier {
		res.Frontier = append(res.Frontier, cte.ExportInput(r.b, ch))
	}
	for _, f := range rep.Findings {
		res.Findings = append(res.Findings, r.wireFinding(f))
	}
	res.QEntries = r.qcacheDelta()
	res.Stats = ResultStats{
		Paths:   rep.Paths,
		Queries: rep.Queries,
		Instr:   rep.TotalInstr,
		WallMS:  time.Since(start).Milliseconds(),
	}
	return res
}

func (r *Runner) runHybrid(ctx context.Context, l Lease) Result {
	start := time.Now()
	cfg := cte.Config{
		Mode: cte.ModeHybrid,
		Budget: cte.Budget{
			Timeout:              time.Duration(l.FuzzMS) * time.Millisecond,
			MaxInstrPerRun:       r.spec.MaxInstr,
			MaxConflictsPerQuery: r.spec.MaxConflicts,
		},
		Cache:       cte.CacheConfig{Queries: r.qc},
		Seed:        r.spec.Seed,
		StopOnError: r.spec.StopOnError,
		Detectors:   r.spec.Detectors,
		Fuzz: cte.FuzzConfig{
			Seeds:          r.seeds,
			Batch:          r.spec.FuzzBatch,
			StallExecs:     r.spec.StallExecs,
			DryEscalations: r.spec.DryEscalations,
		},
		Protocol: r.proto,
	}
	rep := cte.NewSession(r.snap, cfg).Run(ctx)

	res := Result{Lease: l.ID}
	for _, f := range rep.Findings {
		res.Findings = append(res.Findings, r.wireFinding(f))
	}
	if rep.Fuzz != nil {
		// Send the inputs the coordinator has not seeded us with; it
		// dedups by content hash anyway.
		merged, _ := fuzz.MergeInputs(append([][]byte(nil), r.seeds...), rep.Fuzz.Corpus)
		res.Corpus = merged[len(r.seeds):]
		res.Stats.Execs = rep.Fuzz.Execs
	}
	res.QEntries = r.qcacheDelta()
	res.Stats.Queries = rep.Queries
	res.Stats.Instr = rep.TotalInstr
	res.Stats.WallMS = time.Since(start).Milliseconds()
	return res
}

// qcacheDelta exports the cache entries not yet exchanged with the
// coordinator and marks them sent.
func (r *Runner) qcacheDelta() []qcache.WireEntry {
	var delta []qcache.WireEntry
	for _, e := range r.qc.ExportEntries() {
		if !r.qsent[e.Key] {
			r.qsent[e.Key] = true
			delta = append(delta, e)
		}
	}
	return delta
}

func (r *Runner) wireFinding(f cte.Finding) WireFinding {
	wf := WireFinding{
		Kind: f.Err.Kind.String(),
		PC:   f.Err.PC,
		Addr: f.Err.Addr,
		Msg:  f.Err.Error(),
		Func: guest.LocateFunc(r.elf, f.Err.PC),
		Data: f.Data,
	}
	if f.Input != nil {
		wf.Input = cte.ExportInput(r.b, cte.Input{Assignment: f.Input})
	}
	if bug := guest.Classify(r.spec.Prog, r.elf, f.Err.Kind, f.Err.PC, r.fixed); bug != 0 {
		wf.Bug = bug
	}
	return wf
}

// String identifies the runner in logs.
func (r *Runner) String() string {
	return fmt.Sprintf("runner(%s %s)", r.spec.ID, r.spec.Prog)
}
