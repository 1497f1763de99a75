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
// merge, which may have enqueued children or ended the run, and after
// every claim that yielded no path.
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
	inflight int     // popped but not yet merged or dropped
	start    time.Time
	deadline time.Time
}

// run explores until the queue is exhausted, a budget is hit or ctx
// ends, on the configured number of workers. Each worker claims a
// child, solves its trace condition on its own solver, clones the frozen
// snapshot (or resumes the child's checkpoint), executes the path on its
// own core and merges the result, whose trace conditions become pending
// children, under the run lock before it claims the next. A budget stop
// that leaves only pending children is a "path-budget" stop, not
// exhaustion: their conditions were never decided. With one worker that
// makes the path order fully
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
	x.exportFrontier()
	for i, s := range x.solvers {
		st := s.Stats()
		rep.PerWorker[i].Queries = st.Queries
		rep.PerWorker[i].SolverTime = st.SolverTime
	}
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
		it, _ := x.front.pop()
		x.inflight++
		in, ok := x.claim(id, it)
		if !ok {
			x.inflight--
			x.cond.Broadcast()
			continue
		}
		pathID := x.started
		x.started++
		x.mu.Unlock()

		res := x.e.executePath(in, pathID)

		x.mu.Lock()
		x.merge(id, res)
		x.inflight--
		x.cond.Broadcast()
	}
}

// claim turns a popped item into the input worker id runs next. A
// pending child is solved on the worker's own solver with the run lock
// released, then deduplicated; claim reports false when the condition
// is unsat or unknown, when the model duplicates an earlier input, and
// when the run stopped during the solve — the solved input then goes
// back to the frontier, so an exported frontier loses nothing. Called
// with x.mu held; the caller counts the claim in flight.
func (x *pool) claim(id int, it item) (Input, bool) {
	if !it.pending() {
		return it.Input, true
	}
	x.mu.Unlock()
	in, key, ok := x.e.solve(x.solvers[id], it)
	x.mu.Lock()
	if !ok || x.seen[key] {
		return Input{}, false
	}
	x.seen[key] = true
	if x.rep.Stopped != "" || x.claimStop() != "" {
		x.front.push(item{Input: in})
		return Input{}, false
	}
	if x.e.Cfg.Fork.Enabled && in.Fork == nil {
		x.e.obsForkRestarts.Inc()
	}
	return in, true
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
// enqueues its pending children. Called with x.mu held.
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

	e.obsTCs.Add(int64(len(res.children)))
	for _, ch := range res.children {
		ch.Score = score
		x.front.push(ch)
	}
	e.frontierG.Set(int64(x.front.len()))
}

// exportFrontier drains the unexplored queue into the report's Frontier
// when Explore.ExportFrontier is set. The pending children are solved in
// pop order on solver 0 and deduplicated like claimed ones, so the
// export holds the inputs the run would have claimed next.
// Fork checkpoints are process-local and dropped; an importing engine
// restarts those inputs from its snapshot. Called after every worker
// returned.
func (x *pool) exportFrontier() {
	if !x.e.Cfg.Explore.ExportFrontier {
		return
	}
	x.rep.Frontier = make([]Input, 0, x.front.len())
	for {
		it, ok := x.front.pop()
		if !ok {
			break
		}
		in := it.Input
		if it.pending() {
			var key string
			if in, key, ok = x.e.solve(x.solvers[0], it); !ok || x.seen[key] {
				continue
			}
			x.seen[key] = true
		}
		in.Fork = nil
		x.rep.Frontier = append(x.rep.Frontier, in)
	}
}
