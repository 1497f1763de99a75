package cte

import (
	"bytes"
	"context"
	"testing"

	"rvcte/internal/iss"
	"rvcte/internal/obs"
	"rvcte/internal/qcache"
)

// bitstormSrc: 8 independent symbolic branch bits -> 256 paths. Big enough
// that cancellation always lands before exhaustion.
const bitstormSrc = `
_start:
	la a0, buf
	li a1, 8
	la a2, name
	li a7, 1
	ecall            # make_symbolic(buf, 8, "b")
	la a3, buf
	li t2, 0
	li t3, 8
loop:
	add t4, a3, t2
	lbu t0, 0(t4)
	andi t0, t0, 1
	beqz t0, skip
	nop
skip:
	addi t2, t2, 1
	bltu t2, t3, loop
	li a0, 0
	li a7, 0
	ecall
.data
buf: .space 8
name: .asciz "b"
`

func counterVal(t *testing.T, snap *obs.Snapshot, name string) int64 {
	t.Helper()
	v, ok := snap.Counters[name]
	if !ok {
		t.Fatalf("counter %q missing from snapshot (have %v)", name, snap.Counters)
	}
	return v
}

// checkObsAgainstReport asserts the acceptance criterion of the obs
// layer: metric totals equal the Report's legacy counters exactly.
func checkObsAgainstReport(t *testing.T, rep *Report) {
	t.Helper()
	if rep.Obs == nil {
		t.Fatal("report carries no obs snapshot")
	}
	want := map[string]int64{
		"cte.paths":       int64(rep.Paths),
		"cte.sat_tcs":     int64(rep.SatTCs),
		"cte.unsat_tcs":   int64(rep.UnsatTCs),
		"cte.unknown_tcs": int64(rep.UnknownTCs),
		"cte.pruned":      int64(rep.Pruned),
		"cte.findings":    int64(len(rep.Findings)),
		"iss.instr":       int64(rep.TotalInstr),
		"iss.execs":       int64(rep.Paths),
	}
	for name, w := range want {
		if got := counterVal(t, rep.Obs, name); got != w {
			t.Errorf("%s = %d, report says %d", name, got, w)
		}
	}
	if rep.Cache != nil {
		cacheWant := map[string]int64{
			"qcache.queries":      rep.Cache.Queries,
			"qcache.hits":         rep.Cache.Hits,
			"qcache.eval_hits":    rep.Cache.EvalHits,
			"qcache.subsume_hits": rep.Cache.SubsumeHits,
			"qcache.solver_calls": rep.Cache.SolverCalls,
			"qcache.slice_solves": rep.Cache.SliceSolves,
			"qcache.unknowns":     rep.Cache.Unknowns,
			"qcache.stores":       rep.Cache.Stores,
		}
		for name, w := range cacheWant {
			if got := counterVal(t, rep.Obs, name); got != w {
				t.Errorf("%s = %d, cache stats say %d", name, got, w)
			}
		}
		if got := rep.Obs.Gauges["qcache.entries"]; got != rep.Cache.Entries {
			t.Errorf("qcache.entries = %d, cache stats say %d", got, rep.Cache.Entries)
		}
	}
	// Solver-level queries: with a cache only misses reach the solver, so
	// smt.queries matches Report.Queries in both configurations, and it
	// is the sum of the per-worker solver rows.
	if got := counterVal(t, rep.Obs, "smt.queries"); got != int64(rep.Queries) {
		t.Errorf("smt.queries = %d, report says %d", got, rep.Queries)
	}
	perWorker := 0
	for _, w := range rep.PerWorker {
		perWorker += w.Queries
	}
	if perWorker != rep.Queries {
		t.Errorf("per-worker queries sum to %d, report says %d", perWorker, rep.Queries)
	}
	if h, ok := rep.Obs.Histograms["cte.path_us"]; !ok {
		t.Error("cte.path_us histogram missing")
	} else if h.Count != int64(rep.Paths) {
		t.Errorf("cte.path_us count = %d, paths = %d", h.Count, rep.Paths)
	}
}

// TestSessionObsMatchesReport: the tentpole acceptance check at engine
// level — a wired concolic run's metric totals equal the legacy Report
// counters, sequentially and with a worker pool, with and without cache.
func TestSessionObsMatchesReport(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		cache   bool
	}{
		{"seq", 1, false},
		{"seq-cache", 1, true},
		{"par", 4, false},
		{"par-cache", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := snapshot(t, bitstormSrc)
			cfg := Config{
				Workers: tc.workers,
				Budget:  Budget{MaxPaths: 400},
				Obs:     obs.New(),
			}
			if tc.cache {
				cfg.Cache.Queries = qcache.New(snap.B, qcache.Options{})
			}
			rep := NewSession(snap, cfg).Run(context.Background())
			if rep.Paths == 0 || !rep.Exhausted {
				t.Fatalf("exploration did not exhaust: %v", rep)
			}
			if rep.Mode != ModeConcolic || rep.Stopped != "exhausted" {
				t.Errorf("mode=%v stopped=%q", rep.Mode, rep.Stopped)
			}
			checkObsAgainstReport(t, rep)
		})
	}
}

// TestSharedCacheCountsLastSession: two Sessions built in turn on one
// query cache. The cache's counters restart when the second Session
// wires it, so the second Report.Cache counts only its own Run, served
// entirely by the entries the first Run stored; Entries stays the
// cache's total.
func TestSharedCacheCountsLastSession(t *testing.T) {
	snap := snapshot(t, bitstormSrc)
	qc := qcache.New(snap.B, qcache.Options{})
	run := func() *Report {
		cfg := Config{Workers: 1, Obs: obs.New(), Cache: CacheConfig{Queries: qc}}
		rep := NewSession(snap, cfg).Run(context.Background())
		if !rep.Exhausted || rep.Cache == nil {
			t.Fatalf("run did not exhaust with a cache report: stopped=%s", rep.Stopped)
		}
		checkObsAgainstReport(t, rep)
		return rep
	}
	first, second := run(), run()
	if first.Cache.SolverCalls == 0 || first.Cache.Stores == 0 {
		t.Fatalf("first run neither solved nor stored: %+v", *first.Cache)
	}
	c1, c2 := *first.Cache, *second.Cache
	if c2.Queries != c1.Queries || c2.SolverCalls != 0 || c2.Stores != 0 {
		t.Errorf("second run's cache stats %+v, want its own %d queries, no solver calls and no stores", c2, c1.Queries)
	}
	if c2.Entries != c1.Entries {
		t.Errorf("entries %d after the second run, %d after the first", c2.Entries, c1.Entries)
	}
}

// TestSessionHybridObsMatchesReport: same criterion for the hybrid
// engine: fuzzer and driver metric totals equal the FuzzStats section.
func TestSessionHybridObsMatchesReport(t *testing.T) {
	snap := snapshot(t, magicSrc)
	cfg := Config{
		Mode:        ModeHybrid,
		Workers:     1,
		Budget:      Budget{MaxExecs: 50_000},
		Obs:         obs.New(),
		Seed:        1,
		StopOnError: true,
		Fuzz:        FuzzConfig{Batch: 200},
	}
	rep := NewSession(snap, cfg).Run(context.Background())
	if rep.Fuzz == nil || rep.Obs == nil {
		t.Fatalf("hybrid report incomplete: fuzz=%v obs=%v", rep.Fuzz, rep.Obs)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings %d want 1 (stopped %s)", len(rep.Findings), rep.Stopped)
	}
	fs := rep.Fuzz
	want := map[string]int64{
		"fuzz.execs":             int64(fs.Execs),
		"fuzz.pruned":            int64(fs.Pruned),
		"fuzz.findings":          int64(fs.Findings),
		"fuzz.injected":          int64(fs.Injected),
		"hybrid.escalations":     int64(fs.Escalations),
		"hybrid.flips_attempted": int64(fs.FlipsAttempted),
		"hybrid.solves":          int64(fs.Solves),
		"hybrid.replayed_instr":  int64(fs.ReplayedInstrs),
	}
	for name, w := range want {
		if got := counterVal(t, rep.Obs, name); got != w {
			t.Errorf("%s = %d, fuzz stats say %d", name, got, w)
		}
	}
	// iss.instr counts fuzz executions plus concolic replays; iss.execs
	// counts fuzz executions only.
	if got := counterVal(t, rep.Obs, "iss.instr"); got != int64(fs.TotalInstr+fs.ReplayedInstrs) {
		t.Errorf("iss.instr = %d, want fuzz %d + replays %d", got, fs.TotalInstr, fs.ReplayedInstrs)
	}
	if got := counterVal(t, rep.Obs, "iss.execs"); got != int64(fs.Execs) {
		t.Errorf("iss.execs = %d, execs = %d", got, fs.Execs)
	}
	if g, ok := rep.Obs.Gauges["fuzz.corpus"]; !ok || g != int64(fs.CorpusSize) {
		t.Errorf("fuzz.corpus gauge = %d,%v want %d", g, ok, fs.CorpusSize)
	}
	if g, ok := rep.Obs.Gauges["fuzz.edges"]; !ok || g != int64(fs.Edges) {
		t.Errorf("fuzz.edges gauge = %d,%v want %d", g, ok, fs.Edges)
	}
}

// TestSessionTraceEvents: a traced run emits a well-formed event stream
// whose path events tally with the report.
func TestSessionTraceEvents(t *testing.T) {
	var buf bytes.Buffer
	ob := obs.New()
	ob.Tracer = obs.NewTracer(&buf)
	rep := NewSession(snapshot(t, bitstormSrc), Config{Obs: ob}).
		Run(context.Background())
	if err := ob.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("trace does not round-trip: %v", err)
	}
	census := map[string]int{}
	for _, ev := range events {
		census[ev.Ev]++
	}
	if census[obs.EvPathStart] != rep.Paths || census[obs.EvPathEnd] != rep.Paths {
		t.Errorf("path events %d/%d, report has %d paths",
			census[obs.EvPathStart], census[obs.EvPathEnd], rep.Paths)
	}
	if census[obs.EvSatQuery] != rep.Queries {
		t.Errorf("sat_query events %d, report has %d queries", census[obs.EvSatQuery], rep.Queries)
	}
	if census[obs.EvRunEnd] != 1 {
		t.Errorf("run_end events %d want 1", census[obs.EvRunEnd])
	}
	if last := events[len(events)-1]; last.Ev != obs.EvRunEnd || last.Class != "exhausted" {
		t.Errorf("last event %+v want run_end/exhausted", last)
	}
}

// TestSessionCancelSequential: an already-canceled context stops the
// one-worker engine before the first path.
func TestSessionCancelSequential(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := NewSession(snapshot(t, bitstormSrc), Config{}).Run(ctx)
	if rep.Stopped != "canceled" {
		t.Errorf("stopped = %q want canceled", rep.Stopped)
	}
	if rep.Paths != 0 || rep.Exhausted {
		t.Errorf("canceled run still explored: %v", rep)
	}
}

// TestSessionCancelParallel: cancellation mid-run tears the worker pool
// down promptly with a partial report.
func TestSessionCancelParallel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sess := NewSession(snapshot(t, bitstormSrc), Config{Workers: 4})
	sess.OnPath = func(path int, _ *iss.Core) {
		if path == 0 {
			cancel()
		}
	}
	rep := sess.Run(ctx)
	if rep.Stopped != "canceled" {
		t.Errorf("stopped = %q want canceled", rep.Stopped)
	}
	if rep.Paths == 0 {
		t.Error("no path merged before cancellation was observed")
	}
	if rep.Paths >= 256 {
		t.Errorf("run explored all %d paths despite cancellation", rep.Paths)
	}
}

// TestSessionCancelHybrid: an already-canceled context stops the hybrid
// driver before any fuzzing.
func TestSessionCancelHybrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := NewSession(snapshot(t, magicSrc), Config{Mode: ModeHybrid}).Run(ctx)
	if rep.Stopped != "canceled" {
		t.Errorf("stopped = %q want canceled", rep.Stopped)
	}
	if rep.Fuzz == nil || rep.Fuzz.Execs != 0 {
		t.Errorf("canceled hybrid run still fuzzed: %+v", rep.Fuzz)
	}
}
