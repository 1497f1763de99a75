// Package bmc_test exercises the bounded unrolling end to end on real
// guest builds: the positive storm-s run (exact bug set, confirmed
// findings, exhausted state space) and the seeded-disagreement negative
// cases that prove the cross-check oracle actually fails when the
// engines disagree.
package bmc_test

import (
	"context"
	"strings"
	"testing"

	"rvcte/internal/asm"
	"rvcte/internal/bmc"
	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/obs"
	"rvcte/internal/qcache"
	"rvcte/internal/smt"
)

// buildSnap compiles a built-in benchmark program into a frozen VP
// snapshot on a fresh builder.
func buildSnap(t testing.TB, name string) *iss.Core {
	t.Helper()
	p, ok := guest.BenchProgram(name)
	if !ok {
		t.Fatalf("unknown bench program %q", name)
	}
	b := smt.NewBuilder()
	core, _, err := guest.NewCore(b, p)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	core.Freeze()
	return core
}

func runStorm(t *testing.T, cfg bmc.Config) *bmc.Report {
	t.Helper()
	snap := buildSnap(t, "storm-s")
	x, err := bmc.New(snap, cfg)
	if err != nil {
		t.Fatalf("bmc.New: %v", err)
	}
	return x.Run(context.Background())
}

// TestStormS: the positive case. storm-s has exactly one reachable bug
// (the score==5 gated assert); the unrolling must find it, confirm it on
// concrete replay, drop no states, and drain the pool before the bound.
func TestStormS(t *testing.T) {
	rep := runStorm(t, bmc.Config{K: 1 << 20})
	if !rep.Complete {
		t.Fatalf("unsupported drops on storm-s: %v", rep.Unsupported)
	}
	if !rep.Exhausted {
		t.Fatalf("not exhausted: stopped=%q truncated=%d", rep.Stopped, rep.Truncated)
	}
	keys := rep.Keys()
	if len(keys) != 1 || keys[0].Kind != iss.ErrAssertFail {
		t.Fatalf("bug set = %v, want exactly one assert site", keys)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %v, want 1", rep.Findings)
	}
	f := rep.Findings[0]
	if !f.Confirmed {
		t.Errorf("finding %v@%#x not confirmed by concrete replay", f.Kind, f.PC)
	}
	if f.Input == nil {
		t.Error("finding carries no input model")
	}
	if rep.Exits == 0 {
		t.Error("no normal exits accounted — every path ends in CTE_exit")
	}
	if rep.Merges == 0 {
		t.Error("no state merges on a 9-diamond program — path merging is not happening")
	}
	if rep.Unknown != 0 {
		t.Errorf("unknown queries = %d, want 0", rep.Unknown)
	}
}

// TestStormSQueryCache: the same run through a query cache must agree
// and actually route its reachability queries through the cache. The
// Report's counters are the wired bmc.* metrics.
func TestStormSQueryCache(t *testing.T) {
	snap := buildSnap(t, "storm-s")
	qc := qcache.New(snap.B, qcache.Options{})
	o := obs.New()
	x, err := bmc.New(snap, bmc.Config{K: 1 << 20, Cache: qc, Obs: o})
	if err != nil {
		t.Fatalf("bmc.New: %v", err)
	}
	rep := x.Run(context.Background())
	if len(rep.Keys()) != 1 {
		t.Fatalf("bug set = %v, want 1 site", rep.Keys())
	}
	if st := qc.Stats(); st.Queries == 0 {
		t.Error("query cache saw no queries")
	}
	c := o.Snapshot().Counters
	for name, want := range map[string]int64{
		"bmc.steps":      int64(rep.Steps),
		"bmc.queries":    int64(rep.Queries),
		"bmc.splits":     int64(rep.Splits),
		"bmc.merges":     int64(rep.Merges),
		"bmc.violations": int64(rep.Violations),
	} {
		if c[name] != want || want == 0 {
			t.Errorf("%s = %d, report says %d (want equal and nonzero)", name, c[name], want)
		}
	}
}

// TestCompareTamperedConcolicSet: seeded disagreement #1. Tampering the
// concolic finding set (dropping the real storm-s assert) must fail the
// oracle with the site listed as ExtraInBMC — a confirmed BMC finding
// the concolic engine "never reported".
func TestCompareTamperedConcolicSet(t *testing.T) {
	rep := runStorm(t, bmc.Config{K: 1 << 20})
	cr, err := bmc.Compare(rep, nil)
	if err == nil {
		t.Fatal("oracle accepted a tampered (empty) concolic finding set")
	}
	if !strings.Contains(err.Error(), "never reported") {
		t.Errorf("unexpected oracle error: %v", err)
	}
	if len(cr.ExtraInBMC) != 1 {
		t.Errorf("ExtraInBMC = %v, want the one assert site", cr.ExtraInBMC)
	}
	if cr.Agree {
		t.Error("CrossReport.Agree set despite disagreement")
	}
}

// TestCompareDepthMismatch: seeded disagreement #2. A BMC run truncated
// before the bug is reachable, compared against a full-depth concolic
// finding set, must fail the oracle with the site as MissedByBMC — the
// run was Complete (nothing unsupported), so missing a finding is not
// excusable.
func TestCompareDepthMismatch(t *testing.T) {
	rep := runStorm(t, bmc.Config{K: 20})
	if !rep.Complete {
		t.Fatalf("unsupported drops at K=20: %v", rep.Unsupported)
	}
	if rep.Truncated == 0 {
		t.Fatal("K=20 did not truncate storm-s — pick a smaller bound")
	}
	full := []bmc.BugKey{{Kind: iss.ErrAssertFail, PC: 0xdeadbeee}}
	cr, err := bmc.Compare(rep, full)
	if err == nil {
		t.Fatal("oracle accepted a truncated run missing a concolic finding")
	}
	if len(cr.MissedByBMC) != 1 {
		t.Errorf("MissedByBMC = %v, want the injected site", cr.MissedByBMC)
	}
}

// TestCounterS: a second program with value-dependent loop joins; the
// assert never fails (count <= 8 always holds), so the bug set must be
// empty and everything must account as exit or prune.
func TestCounterS(t *testing.T) {
	snap := buildSnap(t, "counter-s")
	x, err := bmc.New(snap, bmc.Config{K: 1 << 20})
	if err != nil {
		t.Fatalf("bmc.New: %v", err)
	}
	rep := x.Run(context.Background())
	if !rep.Complete {
		t.Fatalf("unsupported drops on counter-s: %v", rep.Unsupported)
	}
	if keys := rep.Keys(); len(keys) != 0 {
		t.Fatalf("bug set = %v, want none (counter-s asserts hold)", keys)
	}
	if !rep.Exhausted {
		t.Fatalf("not exhausted: stopped=%q truncated=%d", rep.Stopped, rep.Truncated)
	}
}

// TestBadConfig: K must be positive.
func TestBadConfig(t *testing.T) {
	snap := buildSnap(t, "storm-s")
	if _, err := bmc.New(snap, bmc.Config{}); err == nil {
		t.Fatal("bmc.New accepted K=0")
	}
}

// heapGuardSrc: a symbolic byte decides whether a store lands one past
// a protected block — the heap-guard detector, gated on a branch so the
// violation term carries a non-trivial guard. rv32 asm keeps the guest
// free of compiler-scheduling noise.
const heapGuardSrc = `
_start:
	la a0, buf
	li a1, 1
	la a2, name
	li a7, 1
	ecall            # make_symbolic(buf, 1, "x")
	la a0, blk
	li a1, 4
	li a2, 8
	li a7, 8
	ecall            # register_protect(blk, 4, zone 8)
	la t0, buf
	lbu t1, 0(t0)
	li t2, 42
	bne t1, t2, ok
	la t3, blk
	sw zero, 4(t3)   # x == 42: write one past the block, into the guard
ok:
	li a0, 0
	li a7, 0
	ecall
.data
blk: .space 4
pad: .space 12
buf: .space 4
name: .asciz "x"
`

// TestHeapGuardViolation: the heap-guard detector fires in BMC, with a
// model that concretely reproduces the overflow.
func TestHeapGuardViolation(t *testing.T) {
	img, err := asm.Assemble(heapGuardSrc, 0x80000000)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	b := smt.NewBuilder()
	snap := iss.New(b, iss.Config{RamBase: 0x80000000, RamSize: 1 << 20, MaxInstr: 10_000})
	snap.LoadImage(img.Origin, img.Bytes, img.Entry())
	snap.Freeze()
	x, err := bmc.New(snap, bmc.Config{K: 10_000})
	if err != nil {
		t.Fatalf("bmc.New: %v", err)
	}
	rep := x.Run(context.Background())
	if !rep.Complete {
		t.Fatalf("unsupported drops: %v", rep.Unsupported)
	}
	keys := rep.Keys()
	if len(keys) != 1 || keys[0].Kind != iss.ErrProtectedWrite {
		t.Fatalf("bug set = %v, want one protected-write site", keys)
	}
	f := rep.Findings[0]
	if !f.Confirmed {
		t.Errorf("heap-guard finding not confirmed by replay")
	}
	if got := f.Input[0]; got != 42 {
		t.Errorf("model x = %d, want 42 (the only overflowing input)", got)
	}
}

// TestDetectorKindsUnsupported: the unrolling only models the paper's
// heap guard-zone check. Attaching richer detectors (UAF quarantine,
// canaries, IRQ reentrancy) must not silently weaken the absence proof:
// each extra kind is recorded as an unsupported drop up front, so a run
// that would otherwise be Complete/Exhausted honestly reports neither.
func TestDetectorKindsUnsupported(t *testing.T) {
	snap := buildSnap(t, "counter-s") // Complete under the stock set (TestCounterS)
	if err := snap.AttachDetectorSet([]string{"all"}); err != nil {
		t.Fatal(err)
	}
	x, err := bmc.New(snap, bmc.Config{K: 1 << 20})
	if err != nil {
		t.Fatalf("bmc.New: %v", err)
	}
	rep := x.Run(context.Background())
	for _, kind := range []string{iss.KindHeapUAF, iss.KindStackCanary, iss.KindIRQReentrancy} {
		if rep.Unsupported["detector:"+kind] == 0 {
			t.Errorf("detector %q not recorded as unsupported: %v", kind, rep.Unsupported)
		}
	}
	if n := rep.Unsupported["detector:"+iss.KindHeapGuard]; n != 0 {
		t.Errorf("heap-guard is modeled by the unrolling, must not be dropped (%d)", n)
	}
	if rep.Complete {
		t.Error("Complete with unmodeled detectors attached")
	}
	if rep.Exhausted {
		t.Error("Exhausted with unmodeled detectors attached")
	}
}
