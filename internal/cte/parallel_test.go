package cte

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"rvcte/internal/iss"
)

// runExits explores and returns the sorted multiset of path exit codes.
func runExits(t *testing.T, src string, cfg Config) (*Report, []uint32) {
	t.Helper()
	eng := NewSession(snapshot(t, src), cfg)
	var exits []uint32
	eng.OnPath = func(_ int, c *iss.Core) { exits = append(exits, c.ExitCode) }
	rep := eng.Run(context.Background())
	sort.Slice(exits, func(i, j int) bool { return exits[i] < exits[j] })
	return rep, exits
}

// TestParallelMatchesSequential: the explored path set is a property of
// the program, the dedup and the generational bounds — not of worker
// scheduling. Workers=4 must find exactly the one-worker run's paths
// (modulo order) and the same aggregate statistics.
func TestParallelMatchesSequential(t *testing.T) {
	seqRep, seqExits := runExits(t, counterSrc, Config{Workers: 1, Budget: Budget{MaxPaths: 100}})
	parRep, parExits := runExits(t, counterSrc, Config{Workers: 4, Budget: Budget{MaxPaths: 100}})

	if !seqRep.Exhausted || !parRep.Exhausted {
		t.Fatalf("both runs must exhaust (seq=%v par=%v)", seqRep.Exhausted, parRep.Exhausted)
	}
	if seqRep.Paths != parRep.Paths {
		t.Errorf("paths: seq=%d par=%d", seqRep.Paths, parRep.Paths)
	}
	if len(seqExits) != len(parExits) {
		t.Fatalf("exit multisets differ in size: seq=%v par=%v", seqExits, parExits)
	}
	for i := range seqExits {
		if seqExits[i] != parExits[i] {
			t.Fatalf("exit multisets differ: seq=%v par=%v", seqExits, parExits)
		}
	}
	if len(seqRep.Findings) != len(parRep.Findings) {
		t.Errorf("findings: seq=%d par=%d", len(seqRep.Findings), len(parRep.Findings))
	}
	if parRep.Workers != 4 || len(parRep.PerWorker) != 4 {
		t.Errorf("parallel report worker stats missing: %+v", parRep)
	}
	var perWorkerQueries int
	for _, ws := range parRep.PerWorker {
		perWorkerQueries += ws.Queries
	}
	if perWorkerQueries != parRep.Queries {
		t.Errorf("query aggregation: per-worker sum %d != total %d", perWorkerQueries, parRep.Queries)
	}
}

// TestParallelFindsAssertViolation: a finding surfaces under parallel
// exploration with StopOnError, with the same violating input.
func TestParallelFindsAssertViolation(t *testing.T) {
	eng := NewSession(snapshot(t, assertBugSrc), Config{StopOnError: true, Workers: 4, Budget: Budget{MaxPaths: 50}})
	rep := eng.Run(context.Background())
	if len(rep.Findings) == 0 {
		t.Fatalf("no finding: %v", rep)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Err.Kind == iss.ErrAssertFail && eng.snap.B.Value(f.Input, "x[0]") == 0x42 {
			found = true
		}
	}
	if !found {
		t.Errorf("assert violation with x=0x42 not among findings: %v", rep.Findings)
	}
	if rep.Exhausted {
		t.Error("StopOnError run must not claim exhaustion")
	}
}

// TestParallelMaxPaths: the claim counter bounds executed paths exactly,
// even with workers racing for the queue.
func TestParallelMaxPaths(t *testing.T) {
	eng := NewSession(snapshot(t, counterSrc), Config{Workers: 4, Budget: Budget{MaxPaths: 3}})
	rep := eng.Run(context.Background())
	if rep.Paths != 3 {
		t.Errorf("paths: %d want 3", rep.Paths)
	}
	if rep.Exhausted {
		t.Error("queue should not be exhausted at MaxPaths=3")
	}
}

// TestParallelTimeout: an already-expired deadline stops the run before
// the first claim, as with one worker.
func TestParallelTimeout(t *testing.T) {
	eng := NewSession(snapshot(t, counterSrc), Config{Workers: 4, Budget: Budget{Timeout: time.Nanosecond}})
	rep := eng.Run(context.Background())
	if rep.Exhausted {
		t.Error("timeout run must not report exhaustion")
	}
	if rep.Paths != 0 {
		t.Errorf("expired budget should run no paths, ran %d", rep.Paths)
	}
}

// TestParallelStrategies: every strategy terminates and covers all
// distinct behaviors under the worker pool (order-free assertions only).
func TestParallelStrategies(t *testing.T) {
	for _, strat := range []Strategy{BFS, DFS, Random, Coverage} {
		t.Run(strat.String(), func(t *testing.T) {
			eng := NewSession(snapshot(t, counterSrc), Config{Seed: 42, Workers: 4, Budget: Budget{MaxPaths: 100}, Explore: ExploreConfig{Strategy: strat}})
			exits := map[uint32]int{}
			eng.OnPath = func(_ int, c *iss.Core) { exits[c.ExitCode]++ }
			rep := eng.Run(context.Background())
			if len(exits) != 8 {
				t.Errorf("distinct exits: %d want 8 (%v)", len(exits), exits)
			}
			if !rep.Exhausted {
				t.Error("exploration must terminate")
			}
			if rep.Paths > 20 {
				t.Errorf("too many paths: %d", rep.Paths)
			}
		})
	}
}

// TestConcurrentSnapshotClone exercises the clone-safety contract
// directly: once frozen, a snapshot may be cloned and executed from many
// goroutines at once (run under -race).
func TestConcurrentSnapshotClone(t *testing.T) {
	snap := snapshot(t, counterSrc)
	snap.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				c := snap.Clone()
				c.Run(0)
				if c.Err != nil && c.Err.Kind != iss.ErrAssumeFail {
					t.Errorf("clone run failed: %v", c.Err)
				}
			}
		}()
	}
	wg.Wait()
	if snap.InstrCount != 0 {
		t.Errorf("snapshot was mutated: %d instructions", snap.InstrCount)
	}
}

func TestWorkerResolution(t *testing.T) {
	if got := (Config{}).effectiveWorkers(); got != 1 {
		t.Errorf("zero value: %d want 1 (one worker)", got)
	}
	if got := (Config{Workers: 3}).effectiveWorkers(); got != 3 {
		t.Errorf("explicit: %d want 3", got)
	}
	if got := (Config{Workers: AutoWorkers}).effectiveWorkers(); got < 1 {
		t.Errorf("auto: %d want >= 1", got)
	}
}

// mulGateSrc hides the second path behind "x*y == 143": reaching it
// requires the solver to factor, which costs conflicts — the trace
// condition goes unknown under a tiny per-query budget.
const mulGateSrc = `
_start:
	la a0, x
	li a1, 2
	la a2, name
	li a7, 1
	ecall
	la a0, x
	lbu s0, 0(a0)
	lbu s1, 1(a0)
	mul s2, s0, s1
	li a1, 143
	bne s2, a1, ok
	li a0, 1
	li a7, 0
	ecall
ok:
	li a0, 0
	li a7, 0
	ecall
.data
x: .byte 0, 0
name: .asciz "x"
`

// TestUnknownTCsCounted: budget-exhausted queries are reported as
// UnknownTCs, not folded into UnsatTCs (which the paper's tables read
// as proven-unsat), by both engines that solve trace conditions.
func TestUnknownTCsCounted(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"concolic/workers=1", Config{Workers: 1, Budget: Budget{MaxPaths: 20}}},
		{"concolic/workers=4", Config{Workers: 4, Budget: Budget{MaxPaths: 20}}},
		{"hybrid", Config{Mode: ModeHybrid, Workers: 1, Seed: 1, Budget: Budget{MaxExecs: 2000}, Fuzz: FuzzConfig{Batch: 100}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			budgeted := tc.cfg
			budgeted.Budget.MaxConflictsPerQuery = 1
			rep := NewSession(snapshot(t, mulGateSrc), budgeted).Run(context.Background())
			if rep.UnknownTCs == 0 {
				t.Errorf("factoring TC should exhaust a 1-conflict budget (report %v)", rep)
			}
			if rep.UnsatTCs != 0 {
				t.Errorf("unknown results must not count as unsat (report %v)", rep)
			}

			// Without a budget the same TC is solved.
			full := NewSession(snapshot(t, mulGateSrc), tc.cfg).Run(context.Background())
			if full.UnknownTCs != 0 || full.SatTCs == 0 {
				t.Errorf("unbudgeted run should solve the gate (report %v)", full)
			}
		})
	}
}

// TestSolvesOnlyClaimedChildren: a worker solves a child's trace
// condition when it claims the child, so a run stopped on its path
// budget solves none for the frontier it leaves. Every SAT trace
// condition therefore either ran as a path or was dropped as a
// duplicate. On the session guest cut at 100 paths, an engine that
// solved every trace condition at the end of its path decided 968 SAT
// conditions with no duplicate among them.
func TestSolvesOnlyClaimedChildren(t *testing.T) {
	snap, cfg := sessionCoverageRun(t)
	cfg.Workers = 1
	cfg.Budget.MaxPaths = 100
	sess := NewSession(snap, cfg)
	eng := newEngine(sess.snap, sess.cfg)
	x := eng.newPool(context.Background())
	x.explore()
	rep := x.finish()
	paths, sat := int(eng.obsPaths.Value()), int(eng.tcs.sat.Value())
	// Every new SAT child enters the seen set; the other SAT children
	// were duplicates of an earlier one.
	drops := sat - len(x.seen)
	if rep.Stopped != "path-budget" || paths != 100 {
		t.Fatalf("stopped=%s after %d paths, want path-budget after 100", rep.Stopped, paths)
	}
	if sat > paths+drops {
		t.Errorf("%d SAT trace conditions for %d paths and %d dedup drops", sat, paths, drops)
	}
	t.Logf("%d paths, %d SAT trace conditions, %d dedup drops, %d left pending", paths, sat, drops, x.front.len())
}
