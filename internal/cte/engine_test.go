package cte

import (
	"context"
	"testing"

	"rvcte/internal/asm"
	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

const ramBase = 0x80000000

func snapshot(t *testing.T, src string) *iss.Core {
	t.Helper()
	img, err := asm.Assemble(src, ramBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	b := smt.NewBuilder()
	c := iss.New(b, iss.Config{RamBase: ramBase, RamSize: 1 << 20, MaxInstr: 1_000_000})
	c.LoadImage(img.Origin, img.Bytes, img.Entry())
	return c
}

// twoPathSrc: one symbolic branch; exactly two paths exist.
const twoPathSrc = `
_start:
	la a0, x
	li a1, 4
	la a2, name
	li a7, 1
	ecall
	la a0, x
	lw a0, 0(a0)
	li a1, 5
	bltu a0, a1, small
	li a0, 100
	li a7, 0
	ecall
small:
	li a0, 50
	li a7, 0
	ecall
.data
x: .word 0
name: .asciz "x"
`

func TestExploreTwoPaths(t *testing.T) {
	eng := NewSession(snapshot(t, twoPathSrc), Config{Budget: Budget{MaxPaths: 10}})
	var exits []uint32
	eng.OnPath = func(_ int, c *iss.Core) { exits = append(exits, c.ExitCode) }
	rep := eng.Run(context.Background())
	if rep.Paths != 2 {
		t.Fatalf("paths: %d want 2 (%v)", rep.Paths, rep)
	}
	if !rep.Exhausted {
		t.Error("queue must be exhausted")
	}
	seen := map[uint32]bool{}
	for _, e := range exits {
		seen[e] = true
	}
	if !seen[50] || !seen[100] {
		t.Errorf("both sides must be explored, exits=%v", exits)
	}
	if rep.Queries == 0 || rep.SolverTime <= 0 {
		t.Error("solver statistics missing")
	}
	if len(rep.Findings) != 0 {
		t.Errorf("no findings expected: %v", rep.Findings)
	}
}

// counterSrc loops while x > i, incrementing i: the number of paths
// scales with the bound, exercising generational dedup (each path must be
// explored exactly once).
const counterSrc = `
_start:
	la a0, x
	li a1, 1
	la a2, name
	li a7, 1
	ecall           # 1 symbolic byte
	la a0, x
	lbu s0, 0(a0)
	andi s0, s0, 7  # x in 0..7
	li s1, 0
loop:
	bgeu s1, s0, done
	addi s1, s1, 1
	j loop
done:
	mv a0, s1
	li a7, 0
	ecall
.data
x: .byte 0
name: .asciz "x"
`

func TestExploreCounterAllPaths(t *testing.T) {
	for _, strat := range []Strategy{BFS, DFS, Random, Coverage} {
		t.Run(strat.String(), func(t *testing.T) {
			eng := NewSession(snapshot(t, counterSrc), Config{Seed: 42, Budget: Budget{MaxPaths: 100}, Explore: ExploreConfig{Strategy: strat}})
			exits := map[uint32]int{}
			eng.OnPath = func(_ int, c *iss.Core) { exits[c.ExitCode]++ }
			rep := eng.Run(context.Background())
			// x&7 takes 8 values -> 8 distinct terminal loop counts.
			if len(exits) != 8 {
				t.Errorf("distinct exits: %d want 8 (%v)", len(exits), exits)
			}
			if !rep.Exhausted {
				t.Error("exploration must terminate")
			}
			// Generational bounds must prevent path blowup: at most
			// one path per distinct value plus a few masked duplicates.
			if rep.Paths > 20 {
				t.Errorf("too many paths: %d", rep.Paths)
			}
		})
	}
}

// assertBugSrc hides an assertion violation at x == 0x42.
const assertBugSrc = `
_start:
	la a0, x
	li a1, 1
	la a2, name
	li a7, 1
	ecall
	la a0, x
	lbu s0, 0(a0)
	li a1, 0x42
	xor a0, s0, a1
	snez a0, a0
	li a7, 3
	ecall           # assert(x != 0x42)
	li a0, 0
	li a7, 0
	ecall
.data
x: .byte 0
name: .asciz "x"
`

func TestFindAssertViolation(t *testing.T) {
	eng := NewSession(snapshot(t, assertBugSrc), Config{StopOnError: true, Budget: Budget{MaxPaths: 50}})
	rep := eng.Run(context.Background())
	if len(rep.Findings) != 1 {
		t.Fatalf("findings: %v", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Err.Kind != iss.ErrAssertFail {
		t.Errorf("kind: %v", f.Err.Kind)
	}
	b := eng.snap.B
	if v := b.Value(f.Input, "x[0]"); v != 0x42 {
		t.Errorf("violating input: %#x want 0x42", v)
	}
	if rep.Paths > 3 {
		t.Errorf("should find the bug within 2 paths, took %d", rep.Paths)
	}
}

func TestStopOnErrorFalseCollectsAndContinues(t *testing.T) {
	eng := NewSession(snapshot(t, assertBugSrc), Config{Budget: Budget{MaxPaths: 50}})
	rep := eng.Run(context.Background())
	if len(rep.Findings) != 1 {
		t.Fatalf("expected exactly one finding: %v", rep.Findings)
	}
	if !rep.Exhausted {
		t.Error("exploration should finish the queue")
	}
}

// memBugSrc: a symbolic index into a 4-element table with a missing
// bounds check; index 0xff drives the access out of legal memory.
const memBugSrc = `
_start:
	la a0, idx
	li a1, 1
	la a2, name
	li a7, 1
	ecall
	la a0, idx
	lbu s0, 0(a0)
	li a1, 4
	bltu s0, a1, inbounds   # bounds check exists but value is used raw below
inbounds:
	slli s0, s0, 22         # scale way out of RAM for large idx
	la a1, table
	add a1, a1, s0
	lw a0, 0(a1)
	li a7, 0
	ecall
.data
idx: .byte 0
name: .asciz "idx"
table: .word 1, 2, 3, 4
`

func TestFindIllegalAccess(t *testing.T) {
	eng := NewSession(snapshot(t, memBugSrc), Config{StopOnError: true, Budget: Budget{MaxPaths: 20}})
	rep := eng.Run(context.Background())
	if len(rep.Findings) != 1 {
		t.Fatalf("findings: %d (report %v)", len(rep.Findings), rep)
	}
	k := rep.Findings[0].Err.Kind
	if k != iss.ErrIllegalLoad && k != iss.ErrIllegalJump && k != iss.ErrMisaligned && k != iss.ErrIllegalStore {
		t.Errorf("kind: %v", k)
	}
}

func TestMaxPathsBudget(t *testing.T) {
	eng := NewSession(snapshot(t, counterSrc), Config{Budget: Budget{MaxPaths: 3}})
	rep := eng.Run(context.Background())
	if rep.Paths != 3 {
		t.Errorf("paths: %d want 3", rep.Paths)
	}
	if rep.Exhausted {
		t.Error("queue should not be exhausted at MaxPaths=3")
	}
}

func TestDescribeInput(t *testing.T) {
	b := smt.NewBuilder()
	b.Var(8, "a")
	b.Var(8, "b")
	s := DescribeInput(b, smt.Assignment{0: 5, 1: 7})
	if s != "{a=5, b=7}" {
		t.Errorf("describe: %q", s)
	}
}

// TestDescribeInputGolden pins the exact rendering that cmd/cte prints
// and the child dedup key is built from: names sorted bytewise, decimal
// values, variables unknown to the builder dropped, "<bound>|" prefix.
func TestDescribeInputGolden(t *testing.T) {
	b := smt.NewBuilder()
	for _, name := range []string{"pkt[2]", "pkt[10]", "len", "pkt[0]", "Z", "s.state"} {
		b.Var(8, name)
	}
	in := smt.Assignment{0: 7, 1: 255, 2: 0, 3: 1<<64 - 1, 4: 42, 5: 3, 9: 99}
	cases := []struct {
		in        smt.Assignment
		bound     int
		describe  string
		wantChild string
	}{
		{in, 3,
			"{Z=42, len=0, pkt[0]=18446744073709551615, pkt[10]=255, pkt[2]=7, s.state=3}",
			"3|{Z=42, len=0, pkt[0]=18446744073709551615, pkt[10]=255, pkt[2]=7, s.state=3}"},
		{smt.Assignment{}, 0, "{}", "0|{}"},
		{smt.Assignment{9: 1, 12: 2}, 0, "{}", "0|{}"},
		{smt.Assignment{1: 1}, -1, "{pkt[10]=1}", "-1|{pkt[10]=1}"},
	}
	for i, c := range cases {
		if got := DescribeInput(b, c.in); got != c.describe {
			t.Errorf("case %d: DescribeInput = %q\nwant %q", i, got, c.describe)
		}
		if got := InputKey(b, Input{Assignment: c.in, Bound: c.bound}); got != c.wantChild {
			t.Errorf("case %d: InputKey = %q\nwant %q", i, got, c.wantChild)
		}
	}
}

func TestReportString(t *testing.T) {
	r := &Report{Paths: 2, Queries: 3}
	if r.String() == "" {
		t.Error("empty report string")
	}
}

func TestEngineCoverageAndTrace(t *testing.T) {
	eng := NewSession(snapshot(t, assertBugSrc), Config{StopOnError: true, Budget: Budget{MaxPaths: 50}, Explore: ExploreConfig{TrackCoverage: true, TraceDepth: 8}})
	rep := eng.Run(context.Background())
	if len(rep.Findings) != 1 {
		t.Fatalf("findings: %v", rep.Findings)
	}
	if len(rep.Covered) == 0 {
		t.Error("coverage must be aggregated")
	}
	f := rep.Findings[0]
	if len(f.Trace) == 0 || len(f.Trace) > 8 {
		t.Fatalf("trace length: %d", len(f.Trace))
	}
	// The final traced instruction is the failing assert's ecall.
	last := f.Trace[len(f.Trace)-1]
	if last.PC != f.Err.PC {
		t.Errorf("last traced pc %#x want %#x", last.PC, f.Err.PC)
	}
}

func TestEngineTimeout(t *testing.T) {
	// A 1ns budget expires before the first path is even scheduled: the
	// run stops immediately without claiming exhaustion.
	eng := NewSession(snapshot(t, counterSrc), Config{Budget: Budget{MaxPaths: 0, Timeout: 1}})
	rep := eng.Run(context.Background())
	if rep.Exhausted {
		t.Error("timeout run must not report exhaustion")
	}
	if rep.Paths != 0 {
		t.Errorf("expired budget should run no paths, ran %d", rep.Paths)
	}
}
