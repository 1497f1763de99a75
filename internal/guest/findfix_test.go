package guest_test

// The §4.2.3 find-fix-rerun workflow on the tcpip and session guests:
// run until the first error, fix it, re-run, until a stage is clean.

import (
	"fmt"
	"sync"
	"testing"

	"rvcte/internal/cte"
	"rvcte/internal/findfix"
	"rvcte/internal/qcache"
	"rvcte/internal/smt"
)

var (
	tcpip64 = findfix.Target{Prog: "tcpip", PktMax: 64}
	// session3 attaches every detector kind: each deep bug shows as one.
	session3 = findfix.Target{Prog: "tcpip-session", Pkts: 3, Detectors: []string{"all"}}
)

var (
	concolicOnce sync.Once
	concolicRows []findfix.Row
	concolicErr  error
)

// tcpipConcolicFindFix runs the 64-byte concolic find-fix on tcpip once
// per test binary: six stages at the path budgets 400…9000, then a
// 600-path clean sweep of the patched stack.
func tcpipConcolicFindFix() ([]findfix.Row, error) {
	concolicOnce.Do(func() {
		budgets := []int{400, 1200, 2500, 4000, 6000, 9000, 600}
		concolicRows, concolicErr = findfix.Run(0, len(budgets), findfix.Local(tcpip64,
			func(_ *smt.Builder, i int) cte.Config {
				return cte.Config{StopOnError: true, Budget: cte.Budget{MaxPaths: budgets[i]}}
			}))
	})
	return concolicRows, concolicErr
}

// checkFindFix logs every stage and fails unless the stages found
// exactly the bugs want, one per stage, and then ended clean.
func checkFindFix(t *testing.T, mode string, rows []findfix.Row, err error, want ...int) {
	t.Helper()
	for _, r := range rows {
		what := fmt.Sprintf("bug %d (%s in %s)", r.Bug, r.Kind, r.Func)
		if r.Clean() {
			what = "clean"
		}
		t.Logf("%s stage %d (fixed=%09b): %s, %d paths, %d execs, %d queries, %.2fs solver, %d instr, stopped=%s",
			mode, r.Stage, r.Fixed, what, r.Paths, r.Execs, r.Queries, r.STime.Seconds(), r.Instr, r.Stopped)
	}
	if err != nil {
		t.Fatalf("%s find-fix: %v", mode, err)
	}
	if len(rows) != len(want)+1 {
		t.Fatalf("%s find-fix: clean after %d stages, want %d bugs first", mode, len(rows)-1, len(want))
	}
	found := map[int]bool{}
	for _, r := range rows {
		found[r.Bug] = true
	}
	for _, b := range want {
		if !found[b] {
			t.Errorf("%s never discovered bug %d", mode, b)
		}
	}
}

// bugQueries sums the solver queries of the stages that found a bug.
func bugQueries(rows []findfix.Row) int {
	n := 0
	for _, r := range rows {
		if !r.Clean() {
			n += r.Queries
		}
	}
	return n
}

// TestTCPIPFindFixRerun reproduces the full §4.2.3 workflow on tcpip:
// all six seeded bug classes must be discovered, and the fully patched
// stack must survive a bounded sweep.
func TestTCPIPFindFixRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-stage exploration is slow")
	}
	rows, err := tcpipConcolicFindFix()
	checkFindFix(t, "concolic", rows, err, 1, 2, 3, 4, 5, 6)
}

// tcpipHybridOptions is the configuration used for the hybrid find-fix
// experiment (EXPERIMENTS.md "Hybrid fuzzing ablation"): short stall
// windows keep the solver in the loop — on this workload the gates are
// comparison-shaped, so concrete mutation mostly serves to execute
// solved inputs cheaply and harvest their neighborhoods.
func tcpipHybridOptions(b *smt.Builder) cte.Config {
	return cte.Config{
		Mode: cte.ModeHybrid,
		// Query-cache reuse is part of the hybrid design: flip queries
		// along sibling paths share long prefixes, which the cache's
		// model-reuse and slicing exploit.
		Cache:       cte.CacheConfig{Queries: qcache.New(b, qcache.Options{})},
		Seed:        1,
		StopOnError: true,
		Budget:      cte.Budget{MaxExecs: 150_000, MaxInstrPerRun: 2_000_000},
		Fuzz: cte.FuzzConfig{
			Batch: 200,
			// The corpus grows into the hundreds on this stack; give the
			// escalation rotation a full sweep before declaring exhaustion.
			DryEscalations: 500,
		},
	}
}

// TestTCPIPHybridFindFixRerun replays the find-fix-rerun workflow with
// the hybrid fuzzer instead of pure concolic exploration: all six
// seeded bugs must be rediscovered, and the bug stages must need
// strictly fewer SAT queries than the pure-concolic ones at the same
// worker count — the hybrid pays solver time only for coverage-stalled
// branches.
func TestTCPIPHybridFindFixRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-stage exploration is slow")
	}
	rows, err := findfix.Run(0, 7, findfix.Local(tcpip64, func(b *smt.Builder, i int) cte.Config {
		cfg := tcpipHybridOptions(b)
		if i == 6 {
			cfg.Budget.MaxExecs = 20_000 // bounded clean sweep of the patched stack
		}
		return cfg
	}))
	checkFindFix(t, "hybrid", rows, err, 1, 2, 3, 4, 5, 6)

	concolic, err := tcpipConcolicFindFix()
	if err != nil {
		t.Fatalf("concolic baseline: %v", err)
	}
	hybridQueries, concolicQueries := bugQueries(rows), bugQueries(concolic)
	if hybridQueries >= concolicQueries {
		t.Errorf("hybrid must need strictly fewer SAT queries: hybrid=%d concolic=%d",
			hybridQueries, concolicQueries)
	}
	t.Logf("find-fix-rerun totals: hybrid %d queries, pure concolic %d queries", hybridQueries, concolicQueries)
}

// TestSessionDeepBugsConcolic: pure concolic exploration rediscovers
// all three seeded depth-3 bugs (UAF, canary smash, IRQ reentrancy) on
// the stateful session guest, find-fix-rerun style, and reports nothing
// once all three patches are in.
func TestSessionDeepBugsConcolic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-stage exploration is slow")
	}
	rows, err := findfix.Run(0, 4, findfix.Local(session3, func(b *smt.Builder, i int) cte.Config {
		maxPaths := 30_000
		if i == 3 {
			maxPaths = 4_000 // bounded clean sweep of the patched guest
		}
		return cte.Config{
			// One worker: the coverage schedule of a multi-worker run
			// depends on merge timing, and on 2 workers some schedules
			// miss a stage's bug within the path budget.
			Workers:     1,
			StopOnError: true,
			Budget:      cte.Budget{MaxPaths: maxPaths},
			Cache:       cte.CacheConfig{Queries: qcache.New(b, qcache.Options{})},
			// State-banked coverage scheduling is what makes the deep op
			// sequences reachable: inputs that advance the protocol state
			// land in a fresh edge bank and get frontier priority.
			Explore: cte.ExploreConfig{Strategy: cte.Coverage, TrackCoverage: true},
			Fork:    cte.ForkConfig{Enabled: true},
		}
	}))
	checkFindFix(t, "concolic", rows, err, 7, 8, 9)
}

// TestSessionDeepBugsHybrid: the hybrid fuzzer — state-banked coverage
// map plus concolic escalation on stall — rediscovers the same three
// deep bugs, and goes quiet on the patched guest.
func TestSessionDeepBugsHybrid(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-stage fuzzing is slow")
	}
	rows, err := findfix.Run(0, 4, findfix.Local(session3, func(b *smt.Builder, i int) cte.Config {
		budget := cte.Budget{MaxExecs: 400_000, MaxInstrPerRun: 2_000_000}
		if i == 3 {
			budget.MaxExecs = 60_000 // bounded clean sweep of the patched guest
		}
		return cte.Config{
			Mode:        cte.ModeHybrid,
			Seed:        1,
			StopOnError: true,
			Cache:       cte.CacheConfig{Queries: qcache.New(b, qcache.Options{})},
			Budget:      budget,
			Fuzz: cte.FuzzConfig{
				Batch:          200,
				DryEscalations: 2000,
			},
		}
	}))
	checkFindFix(t, "hybrid", rows, err, 7, 8, 9)
}
