package cte

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

// pool is the shared state of one exploration. The mutex guards the
// frontier, the dedup set, the coverage map and the report; everything
// path-local (core clone, solver, blasted CNF) is worker-owned and needs
// no locking. The condition variable wakes idle workers after every
// merge, which may have enqueued children or ended the run.
type pool struct {
	e       *engine
	ctx     context.Context
	mu      sync.Mutex
	cond    *sync.Cond
	solvers []*smt.Solver // solvers[i] belongs to worker i

	front    *frontier
	seen     map[string]bool
	cover    iss.PCSet
	rep      *Report // rep.Stopped != "" blocks further claims
	started  int     // paths claimed, bounds MaxPaths
	merged   int     // paths merged: the next merged path's index
	inflight int     // claimed but not yet merged
	start    time.Time
	deadline time.Time
}

// run explores until the queue is exhausted, a budget is hit or ctx
// ends, on the configured number of workers. Each worker claims an
// input, clones the frozen snapshot (or resumes the input's checkpoint),
// executes the path on its own core, solves the trace conditions on its
// own solver and merges the result under the run lock before it claims
// the next input. With one worker that makes the path order fully
// deterministic; with more, path order depends on scheduling, but the
// explored path set, dedup and findings do not (paths are independent by
// construction, §3.1.1). Workers check ctx at claim time, so the run
// winds down within one path execution of ctx ending and still returns a
// complete Report of the work done.
func (e *engine) run(ctx context.Context) *Report {
	x := e.newPool(ctx)
	x.explore()
	return x.finish()
}

// newPool freezes the snapshot and seeds a pool with the configured
// number of workers.
func (e *engine) newPool(ctx context.Context) *pool {
	// Freeze the snapshot's copy-on-write pages once, up front: Clone
	// then never mutates shared state, making concurrent clones safe.
	e.Snapshot.Freeze()
	workers := e.Cfg.effectiveWorkers()
	x := &pool{
		e:     e,
		ctx:   ctx,
		start: time.Now(),
		front: newFrontier(e.Cfg.Explore.Strategy, rand.New(rand.NewSource(e.Cfg.Seed+1))),
		seen:  map[string]bool{},
		rep:   &Report{Workers: workers, PerWorker: make([]WorkerStats, workers)},
	}
	x.cond = sync.NewCond(&x.mu)
	if e.Cfg.Budget.Timeout > 0 {
		x.deadline = x.start.Add(e.Cfg.Budget.Timeout)
	}
	for i := 0; i < workers; i++ {
		x.solvers = append(x.solvers, newSolver(e.Builder, e.Cfg))
	}
	x.front.forkLive = e.forkLiveG
	e.seedFrontier(x.front, x.seen)
	return x
}

// explore runs the workers until the run ends.
func (x *pool) explore() {
	var wg sync.WaitGroup
	for id := range x.solvers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x.worker(id)
		}()
	}
	wg.Wait()
}

// finish completes the report of an explored pool, exporting or
// dropping the inputs left in its frontier.
func (x *pool) finish() *Report {
	e := x.e
	rep := x.rep
	rep.Exhausted = rep.Stopped == "" && x.front.len() == 0
	if rep.Exhausted {
		rep.Stopped = "exhausted"
	}
	rep.Covered = make(map[uint32]struct{}, x.cover.Len())
	x.cover.Each(func(pc uint32) { rep.Covered[pc] = struct{}{} })
	rep.WallTime = time.Since(x.start)
	for i, s := range x.solvers {
		rep.PerWorker[i].Queries = s.Stats.Queries
		rep.PerWorker[i].SolverTime = s.Stats.SolverTime
	}
	e.exportFrontier(x.front, rep)
	// Inputs left unexplored release their checkpoints with the frontier.
	e.forkLiveG.Add(-int64(x.front.forks))
	if e.Cfg.Cache.Queries != nil {
		st := e.Cfg.Cache.Queries.Stats()
		rep.Cache = &st
	}
	return rep
}

// worker claims inputs until the queue drains or the run stops. A stop
// only blocks new claims: paths already in flight still merge, children
// included, so an exported frontier loses nothing.
func (x *pool) worker(id int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for {
		for x.rep.Stopped == "" && x.front.len() == 0 && x.inflight > 0 {
			x.cond.Wait()
		}
		if x.rep.Stopped != "" || x.front.len() == 0 {
			// Stopped, or the queue drained with no path in flight that
			// could still produce children: the run is over.
			return
		}
		if reason := x.claimStop(); reason != "" {
			x.rep.Stopped = reason
			return
		}
		in, _ := x.front.pop()
		pathID := x.started
		x.started++
		x.inflight++
		x.mu.Unlock()

		res := x.e.executePath(in, x.solvers[id], pathID)

		x.mu.Lock()
		x.merge(id, res)
		x.inflight--
		x.cond.Broadcast()
	}
}

// claimStop returns why no further path may be claimed, or "" when one
// may. Cancellation and the deadline are polled here, so they take
// effect within one path execution. Called with x.mu held.
func (x *pool) claimStop() string {
	switch {
	case x.ctx.Err() != nil:
		return "canceled"
	case x.e.Cfg.Budget.MaxPaths > 0 && x.started >= x.e.Cfg.Budget.MaxPaths:
		return "path-budget"
	case !x.deadline.IsZero() && !time.Now().Before(x.deadline):
		return "timeout"
	}
	return ""
}

// merge folds one executed path of worker id into the shared report and
// enqueues its deduplicated children. Called with x.mu held.
func (x *pool) merge(id int, res pathResult) {
	e := x.e
	rep := x.rep
	core := res.core
	path := x.merged
	x.merged++
	rep.PerWorker[id].Paths++
	e.obsPaths.Inc()
	if res.forked {
		e.obsForks.Inc()
	}
	e.obsForkRestarts.Add(int64(res.forkRestarts))
	if e.OnPath != nil {
		e.OnPath(path, core)
	}

	// Coverage accounting: score is the number of newly discovered PCs
	// on this path; children inherit it.
	var score float64
	if core.TrackCoverage {
		score = float64(x.cover.Union(&core.Coverage))
		e.coverG.Set(int64(x.cover.Len()))
	}

	if f, prune := findingOf(core, path); prune {
		e.obsPruned.Inc()
	} else if f != nil {
		rep.Findings = append(rep.Findings, *f)
		e.recordFinding(f)
		if e.Cfg.StopOnError && rep.Stopped == "" {
			// In-flight siblings still merge their results, so the
			// report may carry more than one finding; no new paths are
			// claimed after this point.
			rep.Stopped = "stop-on-error"
		}
	}

	for _, ch := range res.children {
		key := InputKey(e.Builder, ch)
		if x.seen[key] {
			continue
		}
		x.seen[key] = true
		ch.Score = score
		x.front.push(ch)
	}
	e.frontierG.Set(int64(x.front.len()))
}
