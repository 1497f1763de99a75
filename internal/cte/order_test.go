package cte

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/qcache"
	"rvcte/internal/smt"
)

// pathOrderHash hashes the ordered OnPath records (path index, exit code,
// error, output) of a one-worker exploration of snap under cfg, which
// must end with the given stop reason.
func pathOrderHash(t *testing.T, snap *iss.Core, cfg Config, stop string) string {
	t.Helper()
	h := sha256.New()
	cfg.Workers = 1
	sess := NewSession(snap, cfg)
	sess.OnPath = func(path int, c *iss.Core) {
		fmt.Fprintf(h, "%d|%d|%v|%q\n", path, c.ExitCode, c.Err, c.Output)
	}
	if rep := sess.Run(context.Background()); rep.Stopped != stop {
		t.Fatalf("exploration stopped with %q, want %q: %v", rep.Stopped, stop, rep)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sessionCoverageRun is the stateful row of the path-order pins: the
// three-packet session guest with bugs 7 and 9 patched, every detector,
// the coverage strategy and state forking, cut at 300 paths. Coverage
// scores decide the pop order, so any drift in coverage accounting or in
// a resumed checkpoint's state shows up in its hash.
func sessionCoverageRun(t *testing.T) (*iss.Core, Config) {
	t.Helper()
	b := smt.NewBuilder()
	p := guest.TCPIPSessionProgram(1<<6|1<<8, nil, 3)
	core, elf, err := guest.NewCore(b, p)
	if err != nil {
		t.Fatalf("build session guest: %v", err)
	}
	addr, ok := elf.Symbol(p.Proto.StateSym)
	if !ok {
		t.Fatalf("state symbol %q missing", p.Proto.StateSym)
	}
	return core, Config{
		Detectors: []string{"all"},
		Budget:    Budget{MaxPaths: 300},
		Cache:     CacheConfig{Queries: qcache.New(b, qcache.Options{})},
		Explore:   ExploreConfig{Strategy: Coverage},
		Fork:      ForkConfig{Enabled: true},
		Protocol: ProtocolConfig{Packets: p.Proto.Pkts, PktMax: p.Proto.Caps,
			StateAddr: addr, States: p.Proto.States},
	}
}

// TestWorkersOnePathOrder pins the path order of a one-worker run. The
// counter and bitstorm hashes were recorded from the engine before the
// exploration loops were merged into one worker pool, the session row
// from the engine before coverage became a bitset and memory pages got a
// line-chunked shadow; any drift in claim, merge or pop order at
// Workers=1 shows up here.
func TestWorkersOnePathOrder(t *testing.T) {
	asm := func(src string) func(*testing.T) (*iss.Core, Config) {
		return func(t *testing.T) (*iss.Core, Config) {
			return snapshot(t, src), Config{Budget: Budget{MaxPaths: 1000}}
		}
	}
	for _, tc := range []struct {
		name string
		run  func(*testing.T) (*iss.Core, Config)
		stop string
		want string
	}{
		{"counter", asm(counterSrc), "exhausted", "2b856c8e41e500a7a2d73035ba62118cf2262f6cc93bb623c1838ac27f5c0357"},
		{"bitstorm", asm(bitstormSrc), "exhausted", "e00cf9a999bb0b1256c5d71e49d9ee8a04a8583a3e8f8865564be188d25f388e"},
		{"session-coverage", sessionCoverageRun, "path-budget", "700a503673b0539245458d36afb948321ccaf9b5ba64b7aba0e7588d44170e46"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, cfg := tc.run(t)
			if got := pathOrderHash(t, snap, cfg, tc.stop); got != tc.want {
				t.Errorf("path order hash %s want %s", got, tc.want)
			}
		})
	}
}

// findFixPathHash runs the TCP/IP find-fix flow in the benchmark's
// find-fix configuration — BFS, one worker, state forking above a
// 2000-instruction prefix, a fresh query cache per stage, 64-byte
// packets — and hashes every executed path of every stage: its index,
// input, instruction count, error and output. Six stop-on-error stages
// each patch the bug their first finding classifies to; a clean sweep
// of the fully patched stack then runs to exhaustion.
func findFixPathHash(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	run := func(fixed uint, stopOnError bool) (*Report, int) {
		b := smt.NewBuilder()
		core, elf, err := guest.NewCore(b, guest.TCPIPProgram(fixed, 64))
		if err != nil {
			t.Fatalf("build tcpip (fixed %06b): %v", fixed, err)
		}
		sess := NewSession(core, Config{
			Workers:     1,
			StopOnError: stopOnError,
			Budget:      Budget{MaxPaths: 10000},
			Cache:       CacheConfig{Queries: qcache.New(b, qcache.Options{})},
			Fork:        ForkConfig{Enabled: true, MinPrefix: 2000},
		})
		sess.OnPath = func(path int, c *iss.Core) {
			fmt.Fprintf(h, "%d|%s|%d|%v|%q\n", path, DescribeInput(b, c.Input), c.InstrCount, c.Err, c.Output)
		}
		rep := sess.Run(context.Background())
		fmt.Fprintf(h, "stage fixed=%06b paths=%d stopped=%s\n", fixed, rep.Paths, rep.Stopped)
		if len(rep.Findings) == 0 {
			return rep, 0
		}
		f := rep.Findings[0]
		return rep, guest.Classify("tcpip", elf, f.Err.Kind, f.Err.PC, fixed)
	}
	var fixed uint
	for stage := 1; stage <= 6; stage++ {
		rep, bug := run(fixed, true)
		if bug < 1 || bug > 6 || fixed&(1<<(bug-1)) != 0 {
			t.Fatalf("stage %d (fixed %06b): bug %d after %d paths (stopped=%s)", stage, fixed, bug, rep.Paths, rep.Stopped)
		}
		t.Logf("stage %d: bug %d, %d paths, %d queries", stage, bug, rep.Paths, rep.Queries)
		fixed |= 1 << (bug - 1)
	}
	rep, _ := run(fixed, false)
	if rep.Stopped != "exhausted" || len(rep.Findings) != 0 {
		t.Fatalf("sweep: stopped=%s with %d findings, want exhausted and clean", rep.Stopped, len(rep.Findings))
	}
	t.Logf("sweep: %d paths, %d queries", rep.Paths, rep.Queries)
	return hex.EncodeToString(h.Sum(nil))
}

// TestFindFixPathsPinned pins every path of the find-fix flow at one
// worker. The hash was recorded from the engine that solved every trace
// condition as soon as its path ended; with BFS and one worker the
// engine claims children in creation order, so solving each one at
// claim time must keep every model, path and dedup decision.
func TestFindFixPathsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("seven tcpip explorations")
	}
	const want = "43ecd0c74b16b7c7e2d241ef04871aa7db2b1b8b392d9cf296921658a75efed8"
	if got := findFixPathHash(t); got != want {
		t.Errorf("find-fix path hash %s want %s", got, want)
	}
}
