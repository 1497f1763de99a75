package cte

import (
	"context"
	"fmt"
	"testing"

	"rvcte/internal/iss"
	"rvcte/internal/obs"
	"rvcte/internal/rv32"
)

// describePaths runs the engine at Workers=1 and renders every executed
// path — input assignment, exit, error, console output, absolute
// instruction count — in execution order. Fork mode resumes checkpoints
// mid-path, so any reconcretization or rewind bug shows up here as a
// diverging record.
func describePaths(t *testing.T, src string, cfg Config) ([]string, *Report) {
	t.Helper()
	eng := NewSession(snapshot(t, src), cfg)
	var recs []string
	eng.OnPath = func(_ int, c *iss.Core) {
		recs = append(recs, fmt.Sprintf("in=%s exit=%d err=%v out=%q instr=%d",
			DescribeInput(eng.snap.B, c.Input), c.ExitCode, c.Err, c.Output, c.InstrCount))
	}
	rep := eng.Run(context.Background())
	return recs, rep
}

// TestForkRestartParity is the bit-identical guarantee of Options.Fork:
// for every guest, the ordered path sequence produced with forking must
// equal the restart-only baseline exactly, on every observable (inputs,
// exits, errors, output, per-path instruction totals) and on the
// aggregate solver statistics. Under the Coverage strategy a resumed
// path collects only its suffix PCs, so the same path order and covered
// set show that checkpoints need no prefix coverage.
func TestForkRestartParity(t *testing.T) {
	guests := []struct {
		name string
		src  string
	}{
		{"two-path", twoPathSrc},
		{"counter", counterSrc},
		{"bitstorm", bitstormSrc},
		{"assert-bug", assertBugSrc},
		{"illegal-access", memBugSrc},
	}
	for _, g := range guests {
		for _, strat := range []Strategy{BFS, DFS, Coverage} {
			t.Run(fmt.Sprintf("%s/%s", g.name, strat), func(t *testing.T) {
				base := Config{Budget: Budget{MaxPaths: 400}, Explore: ExploreConfig{Strategy: strat}}
				fOpt, rOpt := base, base
				fOpt.Fork.Enabled = true
				forkRecs, forkRep := describePaths(t, g.src, fOpt)
				restRecs, restRep := describePaths(t, g.src, rOpt)

				if len(forkRecs) != len(restRecs) {
					t.Fatalf("path counts: fork %d restart %d", len(forkRecs), len(restRecs))
				}
				for i := range forkRecs {
					if forkRecs[i] != restRecs[i] {
						t.Errorf("path %d diverges:\n fork:    %s\n restart: %s",
							i, forkRecs[i], restRecs[i])
					}
				}
				if forkRep.Queries != restRep.Queries ||
					forkRep.SatTCs != restRep.SatTCs ||
					forkRep.UnsatTCs != restRep.UnsatTCs {
					t.Errorf("solver stats diverge: fork q=%d sat=%d unsat=%d, restart q=%d sat=%d unsat=%d",
						forkRep.Queries, forkRep.SatTCs, forkRep.UnsatTCs,
						restRep.Queries, restRep.SatTCs, restRep.UnsatTCs)
				}
				if len(forkRep.Findings) != len(restRep.Findings) {
					t.Errorf("findings: fork %d restart %d",
						len(forkRep.Findings), len(restRep.Findings))
				}
				if len(forkRep.Covered) != len(restRep.Covered) {
					t.Errorf("covered PCs: fork %d restart %d", len(forkRep.Covered), len(restRep.Covered))
				}
				for pc := range restRep.Covered {
					if _, ok := forkRep.Covered[pc]; !ok {
						t.Errorf("fork run never covered %#x", pc)
					}
				}
				// Forking must actually engage (every path beyond the seed
				// resumes a checkpoint on these hook-free guests) and the
				// restart baseline must never report fork activity.
				if forkRep.Paths > 1 && forkRep.Forked == 0 {
					t.Error("fork mode never resumed a checkpoint")
				}
				if forkRep.Forked+forkRep.ForkRestarts != forkRep.Paths-1 {
					t.Errorf("fork accounting: forked %d + restarts %d != paths-1 %d",
						forkRep.Forked, forkRep.ForkRestarts, forkRep.Paths-1)
				}
				if restRep.Forked != 0 || restRep.ForkRestarts != 0 {
					t.Errorf("restart baseline reports fork activity: %d/%d",
						restRep.Forked, restRep.ForkRestarts)
				}
				// The point of forking: strictly less re-execution.
				if forkRep.Paths > 1 && forkRep.TotalInstr >= restRep.TotalInstr {
					t.Errorf("fork mode executed %d instrs, restart %d — no prefix saved",
						forkRep.TotalInstr, restRep.TotalInstr)
				}
			})
		}
	}
}

// TestForkMinPrefixParity: with a capture threshold above every path
// length, fork mode degenerates into pure restarts — same results, all
// children accounted as fallbacks. A threshold of one instruction
// behaves like unconditional capture on these guests.
func TestForkMinPrefixParity(t *testing.T) {
	run := func(fork bool, minPrefix uint64) ([]string, *Report) {
		return describePaths(t, counterSrc, Config{Budget: Budget{MaxPaths: 100}, Fork: ForkConfig{Enabled: fork, MinPrefix: minPrefix}})
	}
	restRecs, _ := run(false, 0)

	highRecs, highRep := run(true, 1<<40)
	if highRep.Forked != 0 || highRep.ForkRestarts != highRep.Paths-1 {
		t.Errorf("threshold above path length: forked=%d restarts=%d paths=%d",
			highRep.Forked, highRep.ForkRestarts, highRep.Paths)
	}
	lowRecs, lowRep := run(true, 1)
	if lowRep.Forked != lowRep.Paths-1 {
		t.Errorf("threshold of 1: forked=%d paths=%d", lowRep.Forked, lowRep.Paths)
	}
	for name, recs := range map[string][]string{"high": highRecs, "low": lowRecs} {
		if len(recs) != len(restRecs) {
			t.Fatalf("%s threshold: %d paths want %d", name, len(recs), len(restRecs))
		}
		for i := range recs {
			if recs[i] != restRecs[i] {
				t.Errorf("%s threshold path %d diverges:\n %s\n %s", name, i, recs[i], restRecs[i])
			}
		}
	}
}

// TestForkFallbackOnExecHook: an installed ExecHook makes checkpoints
// unsound (external per-instruction state can't be cloned), so capture
// is skipped and every child falls back to a snapshot restart — with
// unchanged results.
func TestForkFallbackOnExecHook(t *testing.T) {
	run := func(fork bool) ([]string, *Report) {
		snap := snapshot(t, counterSrc)
		snap.ExecHook = func(c *iss.Core, inst rv32.Inst) bool { return false }
		eng := NewSession(snap, Config{Budget: Budget{MaxPaths: 100}, Fork: ForkConfig{Enabled: fork}})
		var recs []string
		eng.OnPath = func(_ int, c *iss.Core) {
			recs = append(recs, fmt.Sprintf("in=%s exit=%d", DescribeInput(eng.snap.B, c.Input), c.ExitCode))
		}
		return recs, eng.Run(context.Background())
	}
	forkRecs, forkRep := run(true)
	restRecs, _ := run(false)

	if forkRep.Forked != 0 {
		t.Errorf("checkpoints resumed under an ExecHook: %d", forkRep.Forked)
	}
	if forkRep.ForkRestarts == 0 {
		t.Error("fallback restarts not reported")
	}
	if len(forkRecs) != len(restRecs) {
		t.Fatalf("path counts: %d vs %d", len(forkRecs), len(restRecs))
	}
	for i := range forkRecs {
		if forkRecs[i] != restRecs[i] {
			t.Errorf("path %d diverges under fallback:\n %s\n %s", i, forkRecs[i], restRecs[i])
		}
	}
}

// TestForkParallelSameFindings: with several workers the path order —
// and therefore which solver model reaches each path first — is
// scheduling-dependent, so paths are keyed semantically: bitstorm's
// behavior depends only on bit 0 of each input byte (unassigned
// variables read as zero, matching both engines' semantics). The
// explored behavior set must match the restart baseline exactly.
func TestForkParallelSameFindings(t *testing.T) {
	run := func(fork bool) map[string]bool {
		eng := NewSession(snapshot(t, bitstormSrc), Config{Workers: 4, Budget: Budget{MaxPaths: 400}, Fork: ForkConfig{Enabled: fork}})
		set := map[string]bool{}
		eng.OnPath = func(_ int, c *iss.Core) {
			var bits [8]uint64
			for id := range bits {
				bits[id] = c.Input[id] & 1
			}
			set[fmt.Sprintf("%v|%d|%q", bits, c.ExitCode, c.Output)] = true
		}
		rep := eng.Run(context.Background())
		if !rep.Exhausted {
			t.Fatalf("fork=%v: not exhausted", fork)
		}
		return set
	}
	forkSet := run(true)
	restSet := run(false)
	if len(forkSet) != 256 || len(restSet) != 256 {
		t.Fatalf("behavior set sizes: fork %d restart %d want 256", len(forkSet), len(restSet))
	}
	for k := range forkSet {
		if !restSet[k] {
			t.Errorf("fork-only behavior %s", k)
		}
	}
}

// TestForkLiveGauge: cte.fork_live counts the queued inputs that hold a
// checkpoint. It rises while forked children wait in the frontier, never
// exceeds the frontier length, and is back at zero when Run returns —
// whether the run exhausts, stops on its path budget with the rest of
// the queue dropped, or exports the queue (exported inputs carry no
// checkpoint).
func TestForkLiveGauge(t *testing.T) {
	for _, c := range []struct {
		name     string
		maxPaths int
		export   bool
	}{
		{"exhausted", 0, false},
		{"budget", 40, false},
		{"export", 40, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ob := obs.New()
			live, front := ob.Registry().Gauge("cte.fork_live"), ob.Registry().Gauge("cte.frontier")
			sess := NewSession(snapshot(t, bitstormSrc), Config{
				Budget:  Budget{MaxPaths: c.maxPaths},
				Explore: ExploreConfig{ExportFrontier: c.export},
				Fork:    ForkConfig{Enabled: true},
				Obs:     ob,
			})
			var peak int64
			sess.OnPath = func(path int, _ *iss.Core) {
				if v := live.Value(); v < 0 || v > front.Value() {
					t.Errorf("path %d: fork_live %d outside [0, frontier %d]", path, v, front.Value())
				} else {
					peak = max(peak, v)
				}
			}
			rep := sess.Run(context.Background())
			if peak == 0 {
				t.Error("fork_live never rose above zero")
			}
			if v := live.Value(); v != 0 {
				t.Errorf("fork_live %d after Run (stopped=%s), want 0", v, rep.Stopped)
			}
			if c.export && len(rep.Frontier) == 0 {
				t.Error("nothing exported")
			}
			for _, in := range rep.Frontier {
				if in.Fork != nil {
					t.Fatal("an exported input kept its checkpoint")
				}
			}
		})
	}
}

// TestApplyTimeCounted: cte.apply_ns accumulates the time spent
// installing models into forked children, and stays zero when no child
// forks.
func TestApplyTimeCounted(t *testing.T) {
	for _, fork := range []bool{true, false} {
		ob := obs.New()
		rep := NewSession(snapshot(t, bitstormSrc), Config{
			Fork: ForkConfig{Enabled: fork},
			Obs:  ob,
		}).Run(context.Background())
		forks := ob.Registry().Counter("cte.forks").Value()
		apply := ob.Registry().Counter("cte.apply_ns").Value()
		if fork && (forks == 0 || apply <= 0) {
			t.Errorf("fork run (%d paths): %d forks, apply_ns %d, want both positive", rep.Paths, forks, apply)
		}
		if !fork && apply != 0 {
			t.Errorf("restart run: apply_ns %d, want 0", apply)
		}
	}
}

// TestForkCapturesCounted: cte.fork_captures sums the checkpoints every
// executed path captured. It is nonzero with forking on, matches the
// distinct checkpoints found at the executed paths' trace-condition
// sites, and is zero with forking off or with MinPrefix above every
// path's length.
func TestForkCapturesCounted(t *testing.T) {
	for _, c := range []struct {
		name string
		fork ForkConfig
	}{
		{"fork", ForkConfig{Enabled: true}},
		{"restart", ForkConfig{}},
		{"min-prefix", ForkConfig{Enabled: true, MinPrefix: 1 << 40}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ob := obs.New()
			sess := NewSession(snapshot(t, ladderSrc), Config{Fork: c.fork, Obs: ob})
			seen := 0
			sess.OnPath = func(_ int, core *iss.Core) {
				cps := map[*iss.Checkpoint]bool{}
				for _, tc := range core.Trace {
					if cp := core.Checkpoint(tc.SiteIdx); cp != nil {
						cps[cp] = true
					}
				}
				seen += len(cps)
			}
			rep := sess.Run(context.Background())
			got := ob.Registry().Counter("cte.fork_captures").Value()
			if got != int64(seen) {
				t.Errorf("cte.fork_captures %d, %d checkpoints at the paths' sites", got, seen)
			}
			if want := c.name == "fork"; (got > 0) != want {
				t.Errorf("%d paths: cte.fork_captures %d, want nonzero %v", rep.Paths, got, want)
			}
		})
	}
}

// ladderSrc registers four heap blocks whose sizes are symbolic bytes.
// Each registration emits a ladder of alternative-size trace conditions
// at one site (size > N, > N+7, > N+31, ...), so several SAT children
// share one divergence site and its checkpoint.
const ladderSrc = `
_start:
	la a0, buf
	li a1, 4
	la a2, name
	li a7, 1
	ecall            # make_symbolic(buf, 4, "s")
	la s0, buf
	li s1, 0
	li s2, 4
loop:
	add t4, s0, s1
	lbu a1, 0(t4)
	la a0, heap
	li a2, 0
	li a7, 8
	ecall            # register_protected_memory(heap, s[i], 0)
	addi s1, s1, 1
	bltu s1, s2, loop
	li a0, 0
	li a7, 0
	ecall
.data
buf: .space 4
name: .asciz "s"
heap: .space 16
`

// TestForkConcurrentResume: with two workers, siblings queued at one
// ladder site resume the same checkpoint from different goroutines,
// which must only read it (this test runs under make race). The
// one-worker fork run must still equal the restart run path by path.
func TestForkConcurrentResume(t *testing.T) {
	forkRecs, forkRep := describePaths(t, ladderSrc, Config{Fork: ForkConfig{Enabled: true}})
	restRecs, restRep := describePaths(t, ladderSrc, Config{})
	if !forkRep.Exhausted || !restRep.Exhausted {
		t.Fatalf("one worker: fork stopped=%s, restart stopped=%s", forkRep.Stopped, restRep.Stopped)
	}
	if len(forkRecs) != len(restRecs) {
		t.Fatalf("one worker: fork %d paths, restart %d", len(forkRecs), len(restRecs))
	}
	for i := range forkRecs {
		if forkRecs[i] != restRecs[i] {
			t.Errorf("one worker, path %d diverges:\n fork:    %s\n restart: %s", i, forkRecs[i], restRecs[i])
		}
	}

	// Whether two resumes of one checkpoint overlap depends on
	// scheduling, so the two-worker run repeats.
	for range 8 {
		rep := NewSession(snapshot(t, ladderSrc), Config{Workers: 2, Fork: ForkConfig{Enabled: true}}).Run(context.Background())
		if !rep.Exhausted || len(rep.Findings) != 0 {
			t.Fatalf("two workers: stopped=%s findings=%d", rep.Stopped, len(rep.Findings))
		}
		if rep.Forked == 0 || rep.Forked+rep.ForkRestarts != rep.Paths-1 {
			t.Errorf("two workers: forked %d + restarts %d, paths %d", rep.Forked, rep.ForkRestarts, rep.Paths)
		}
	}
}

// TestForkQueuedChildrenShareCheckpoints is the memory shape of lazy
// fork children after a path-budget stop: every queued forked child
// references the checkpoint its parent captured at the child's site, so
// the queue holds at most one checkpoint per divergence site and fewer
// checkpoints than forked children. It counts references, not heap
// bytes, so it is deterministic.
func TestForkQueuedChildrenShareCheckpoints(t *testing.T) {
	type site struct{ path, idx int }
	sess := NewSession(snapshot(t, ladderSrc), Config{
		Budget: Budget{MaxPaths: 4},
		Fork:   ForkConfig{Enabled: true},
	})
	eng := newEngine(sess.snap, sess.cfg)
	captured := map[*iss.Checkpoint]site{}
	eng.OnPath = func(path int, c *iss.Core) {
		for _, tc := range c.Trace {
			if cp := c.Checkpoint(tc.SiteIdx); cp != nil {
				captured[cp] = site{path, tc.SiteIdx}
			}
		}
	}
	x := eng.newPool(context.Background())
	x.explore()

	queued := x.front.list[x.front.head:]
	forked := 0
	perSite := map[site]map[*iss.Checkpoint]bool{}
	for _, in := range queued {
		if in.Fork == nil {
			continue
		}
		forked++
		s, ok := captured[in.Fork]
		if !ok {
			t.Fatalf("queued child (bound %d) references no checkpoint an executed path captured", in.Bound)
		}
		if s.idx != in.Bound-1 {
			t.Errorf("queued child with bound %d references the checkpoint of site %d", in.Bound, s.idx)
		}
		if perSite[s] == nil {
			perSite[s] = map[*iss.Checkpoint]bool{}
		}
		perSite[s][in.Fork] = true
	}
	distinct := 0
	for s, cps := range perSite {
		if len(cps) > 1 {
			t.Errorf("site %d of path %d: %d checkpoints queued, want one", s.idx, s.path, len(cps))
		}
		distinct += len(cps)
	}
	if forked != x.front.forks {
		t.Errorf("%d queued forked children, frontier counts %d", forked, x.front.forks)
	}
	if distinct == 0 || distinct >= forked {
		t.Errorf("%d queued forked children hold %d distinct checkpoints, want fewer (and some)", forked, distinct)
	}
	if rep := x.finish(); rep.Stopped != "path-budget" {
		t.Fatalf("stopped=%s, want path-budget", rep.Stopped)
	}
	t.Logf("%d queued children, %d forked, %d distinct checkpoints", len(queued), forked, distinct)
}
