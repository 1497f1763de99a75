package guest

import (
	"context"
	"testing"

	"rvcte/internal/cte"
	"rvcte/internal/qcache"
	"rvcte/internal/relf"
	"rvcte/internal/smt"
)

// sessionProto resolves a session program's ProtoSpec against its built
// ELF — the same wiring cmd/cte and the campaign runner perform.
func sessionProto(t *testing.T, p Program, elf *relf.File) cte.ProtocolConfig {
	t.Helper()
	addr, ok := elf.Symbol(p.Proto.StateSym)
	if !ok {
		t.Fatalf("state symbol %q missing from the session guest", p.Proto.StateSym)
	}
	return cte.ProtocolConfig{
		Packets:   p.Proto.Pkts,
		PktMax:    p.Proto.Caps,
		StateAddr: addr,
		States:    p.Proto.States,
	}
}

// findFixSession runs one find-fix-rerun campaign over the three deep
// session bugs with the given per-stage config factory (final = the
// patched-guest clean sweep, which runs on a reduced budget) and
// returns the bug indices discovered, in order.
func findFixSession(t *testing.T, mode string, cfgFor func(b *smt.Builder, proto cte.ProtocolConfig, final bool) cte.Config) []int {
	t.Helper()
	fixed := uint(0)
	var bugs []int
	for stage := 0; stage < 3; stage++ {
		b := smt.NewBuilder()
		p := TCPIPSessionProgram(fixed, nil, 3)
		core, elf, err := NewCore(b, p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cfgFor(b, sessionProto(t, p, elf), false)
		rep := cte.NewSession(core, cfg).Run(context.Background())
		if len(rep.Findings) == 0 {
			t.Fatalf("%s stage %d (fixed=%09b): no finding (stopped=%s paths=%d)",
				mode, stage, fixed, rep.Stopped, rep.Paths)
		}
		f := rep.Findings[0]
		bug := Classify("tcpip-session", elf, f.Err.Kind, f.Err.PC, fixed)
		if bug < 7 || bug > 9 {
			t.Fatalf("%s stage %d: unclassifiable finding %v in %s",
				mode, stage, f.Err, LocateFunc(elf, f.Err.PC))
		}
		if fixed&(1<<(bug-1)) != 0 {
			t.Fatalf("%s stage %d: bug %d found twice", mode, stage, bug)
		}
		instr, execs := rep.TotalInstr, uint64(0)
		if rep.Fuzz != nil {
			instr, execs = rep.Fuzz.TotalInstr, rep.Fuzz.Execs
		}
		t.Logf("%s stage %d: bug %d (%v in %s), %d paths, %d execs, %d queries, %d instr",
			mode, stage, bug, f.Err.Kind, LocateFunc(elf, f.Err.PC),
			rep.Paths, execs, rep.Queries, instr)
		bugs = append(bugs, bug)
		fixed |= 1 << (bug - 1)
	}
	// The fully patched guest survives the same exploration budget.
	b := smt.NewBuilder()
	p := TCPIPSessionProgram(fixed, nil, 3)
	core, elf, err := NewCore(b, p)
	if err != nil {
		t.Fatal(err)
	}
	rep := cte.NewSession(core, cfgFor(b, sessionProto(t, p, elf), true)).Run(context.Background())
	if len(rep.Findings) != 0 {
		f := rep.Findings[0]
		t.Fatalf("%s: patched guest still fails: %v in %s", mode, f.Err, LocateFunc(elf, f.Err.PC))
	}
	return bugs
}

// TestSessionDeepBugsConcolic: pure concolic exploration rediscovers
// all three seeded depth-3 bugs (UAF, canary smash, IRQ reentrancy) on
// the stateful session guest, find-fix-rerun style, and reports nothing
// once all three patches are in.
func TestSessionDeepBugsConcolic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-stage exploration is slow")
	}
	bugs := findFixSession(t, "concolic", func(b *smt.Builder, proto cte.ProtocolConfig, final bool) cte.Config {
		maxPaths := 30_000
		if final {
			maxPaths = 4_000 // bounded clean sweep of the patched guest
		}
		return cte.Config{
			// One worker: the coverage schedule of a multi-worker run
			// depends on merge timing, and on 2 workers some schedules
			// miss a stage's bug within the path budget.
			Workers:     1,
			StopOnError: true,
			Detectors:   []string{"all"},
			Budget:      cte.Budget{MaxPaths: maxPaths},
			Cache:       cte.CacheConfig{Queries: qcache.New(b, qcache.Options{})},
			// State-banked coverage scheduling is what makes the deep op
			// sequences reachable: inputs that advance the protocol state
			// land in a fresh edge bank and get frontier priority.
			Explore:  cte.ExploreConfig{Strategy: cte.Coverage, TrackCoverage: true},
			Fork:     cte.ForkConfig{Enabled: true},
			Protocol: proto,
		}
	})
	checkDeepBugSet(t, "concolic", bugs)
}

// TestSessionDeepBugsHybrid: the hybrid fuzzer — state-banked coverage
// map plus concolic escalation on stall — rediscovers the same three
// deep bugs, and goes quiet on the patched guest.
func TestSessionDeepBugsHybrid(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-stage fuzzing is slow")
	}
	bugs := findFixSession(t, "hybrid", func(b *smt.Builder, proto cte.ProtocolConfig, final bool) cte.Config {
		budget := cte.Budget{MaxExecs: 400_000, MaxInstrPerRun: 2_000_000}
		if final {
			budget.MaxExecs = 60_000 // bounded clean sweep of the patched guest
		}
		return cte.Config{
			Mode:        cte.ModeHybrid,
			Seed:        1,
			StopOnError: true,
			Detectors:   []string{"all"},
			Cache:       cte.CacheConfig{Queries: qcache.New(b, qcache.Options{})},
			Budget:      budget,
			Fuzz: cte.FuzzConfig{
				Batch:          200,
				StallExecs:     200,
				DryEscalations: 2000,
			},
			Protocol: proto,
		}
	})
	checkDeepBugSet(t, "hybrid", bugs)
}

func checkDeepBugSet(t *testing.T, mode string, bugs []int) {
	t.Helper()
	seen := map[int]bool{}
	for _, b := range bugs {
		seen[b] = true
	}
	for b := 7; b <= 9; b++ {
		if !seen[b] {
			t.Errorf("%s never discovered deep bug %d (got %v)", mode, b, bugs)
		}
	}
}
