package campaign

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"rvcte/internal/cte"
	"rvcte/internal/findfix"
	"rvcte/internal/fuzz"
	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/qcache"
	"rvcte/internal/smt"
)

// Runner executes leases for one campaign: it holds the worker-local
// long-lived state — the SMT builder, the built target (its Core is the
// VP snapshot: never mutated, sessions clone it), the query cache, and
// the sync bookkeeping. One Runner per campaign per worker process.
type Runner struct {
	spec  Spec
	b     *smt.Builder
	built findfix.Built
	qc    *qcache.Cache
	qrecv map[uint64]bool // qcache keys received from the coordinator
	qcur  int             // export cursor: local cache entries already exchanged
	qseq  int             // sync cursor into the coordinator's entry list
	cseq  int             // sync cursor into the coordinator's corpus
	fresh bool            // no lease response synced yet
	seeds [][]byte        // synced corpus (hybrid seeds)

	// Hybrid campaigns: one Session per worker, resumed by every lease,
	// so corpus, coverage and escalation memory outlive a timebox.
	hyb    *cte.Session
	hexecs uint64 // fuzz executions reported by earlier leases
}

// NewRunner builds the worker-local state for spec. Every worker builds
// the spec's Target: a bit-identical guest, and for stateful guests the
// same protocol-state wiring, so all bank edge coverage identically.
func NewRunner(spec Spec) (*Runner, error) {
	b := smt.NewBuilder()
	g, err := spec.Target().Build(b)
	if err != nil {
		return nil, err
	}
	return &Runner{
		spec:  spec,
		b:     b,
		built: g,
		qc:    qcache.New(b, qcache.Options{}),
		qrecv: map[uint64]bool{},
		fresh: true,
	}, nil
}

// Request returns the next lease request of the named worker: the sync
// cursors, and Fresh until the first lease response is synced.
func (r *Runner) Request(worker string) LeaseRequest {
	return LeaseRequest{Worker: worker, QSeq: r.qseq, CSeq: r.cseq, Fresh: r.fresh}
}

// Sync merges a lease response's query-cache and corpus deltas into the
// local state and advances the cursors. Entries received from the
// coordinator count as already-exchanged, so they are not echoed back.
func (r *Runner) Sync(l Lease) {
	r.fresh = false
	for _, e := range l.QEntries {
		r.qrecv[e.Key] = true
	}
	r.qc.ImportEntries(l.QEntries)
	if l.QSeq > r.qseq {
		r.qseq = l.QSeq
	}
	if len(l.Corpus) > 0 {
		n := len(r.seeds)
		r.seeds, _ = fuzz.MergeInputs(r.seeds, l.Corpus)
		if r.hyb != nil {
			r.hyb.AddSeeds(r.seeds[n:]) // peers' inputs, new to this worker
		}
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
	res := Result{Lease: l.ID}
	roots := make([]cte.Input, len(l.Inputs))
	for i, wi := range l.Inputs {
		in, err := cte.ImportInput(r.b, wi)
		if err != nil {
			if res.Err == "" {
				res.Err = fmt.Sprintf("lease %s: input %d: %v", l.ID, i, err)
			}
			res.Rejected = append(res.Rejected, wi.Key())
		}
		roots[i] = in
	}
	if res.Err != "" {
		return res // a failed lease: the coordinator requeues the rest
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
		Explore: cte.ExploreConfig{
			Strategy:       cte.BFS,
			Roots:          roots,
			ExportFrontier: true,
		},
		Protocol: r.built.Proto,
	}
	sess := cte.NewSession(r.built.Core, cfg)
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
	if r.hyb == nil {
		// The first lease starts the worker's session; later leases
		// resume it for another timebox (FuzzLeaseMS is fixed per
		// campaign, so the first lease's timebox is every lease's).
		r.hyb = cte.NewSession(r.built.Core, r.hybridConfig(l))
	}
	rep := r.hyb.Run(ctx)

	res := Result{Lease: l.ID}
	for _, f := range rep.Findings {
		res.Findings = append(res.Findings, r.wireFinding(f))
	}
	if rep.Fuzz != nil {
		// Send the inputs the coordinator has not seeded us with; it
		// dedups by content hash anyway. They count as known from now
		// on, so their echo in the next lease's corpus delta is no news.
		n := len(r.seeds)
		r.seeds, _ = fuzz.MergeInputs(r.seeds, rep.Fuzz.Corpus)
		res.Corpus = r.seeds[n:]
		res.Stats.Execs = rep.Fuzz.Execs - r.hexecs
		r.hexecs = rep.Fuzz.Execs
	}
	res.QEntries = r.qcacheDelta()
	res.Stats.Queries = rep.Queries
	res.Stats.Instr = rep.TotalInstr
	res.Stats.WallMS = time.Since(start).Milliseconds()
	return res
}

// hybridConfig is the Session configuration of a worker's hybrid
// campaign, started by lease l.
func (r *Runner) hybridConfig(l Lease) cte.Config {
	return cte.Config{
		Mode: cte.ModeHybrid,
		Budget: cte.Budget{
			Timeout:              time.Duration(l.FuzzMS) * time.Millisecond,
			MaxInstrPerRun:       r.spec.MaxInstr,
			MaxConflictsPerQuery: r.spec.MaxConflicts,
		},
		Cache:       cte.CacheConfig{Queries: r.qc},
		Seed:        leaseSeed(r.spec.Seed, l.ID),
		StopOnError: r.spec.StopOnError,
		Fuzz: cte.FuzzConfig{
			Seeds:          r.seeds,
			Batch:          r.spec.FuzzBatch,
			DryEscalations: r.spec.DryEscalations,
		},
		Protocol: r.built.Proto,
	}
}

// leaseSeed derives the fuzzing seed of a worker's hybrid session from
// the campaign seed and the ID of the lease that started it. Lease IDs
// are unique, so concurrent workers fuzz with distinct seeds instead of
// duplicating each other's mutations, and they are assigned in order,
// so a campaign stays reproducible for a fixed seed and lease order.
func leaseSeed(seed int64, leaseID string) int64 {
	h := fnv.New64a()
	h.Write([]byte(leaseID))
	return seed ^ int64(h.Sum64())
}

// qcacheDelta exports the cache entries not yet exchanged with the
// coordinator: those inserted since the previous delta, less the ones
// received from it. A key enters the cache once, so every entry before
// the cursor was sent or received already.
func (r *Runner) qcacheDelta() []qcache.WireEntry {
	ents, cur := r.qc.ExportSince(r.qcur)
	r.qcur = cur
	var delta []qcache.WireEntry
	for _, e := range ents {
		if !r.qrecv[e.Key] {
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
		Func: guest.LocateFunc(r.built.ELF, f.Err.PC),
		Data: f.Data,
		// No classifier rule reads the fixed-bug mask.
		Bug: guest.Classify(r.spec.Prog, r.built.ELF, f.Err.Kind, f.Err.PC, 0),
	}
	if f.Input != nil {
		wf.Input = cte.ExportInput(r.b, cte.Input{Assignment: f.Input})
	}
	return wf
}
