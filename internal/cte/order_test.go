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
