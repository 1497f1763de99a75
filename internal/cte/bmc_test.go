package cte

import (
	"context"
	"testing"

	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/qcache"
	"rvcte/internal/smt"
)

// guestSnap builds a named benchmark program into a VP snapshot (the
// asm-based snapshot() helper can't express the C benchmarks).
func guestSnap(t *testing.T, name string) *iss.Core {
	t.Helper()
	p, ok := guest.BenchProgram(name)
	if !ok {
		t.Fatalf("unknown bench program %q", name)
	}
	core, _, err := guest.NewCore(smt.NewBuilder(), p)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return core
}

// TestBMCConcolicAgreement is the differential acceptance test: on
// storm-s at the same depth bound the BMC bug set must equal the
// concolic finding set, every sampled concolic path condition must be
// satisfiable under the BMC solver, and each sampled input must fall
// under exactly one of the unrolling's accounted guards.
func TestBMCConcolicAgreement(t *testing.T) {
	snap := guestSnap(t, "storm-s")
	cfg := Config{Cache: CacheConfig{
		Queries: qcache.New(snap.B, qcache.Options{}),
	}}
	cross, diff, err := BMCCrossCheck(context.Background(), snap, cfg, 32)
	if err != nil {
		t.Fatalf("cross-check: %v", err)
	}
	if !cross.Agree {
		t.Fatalf("engines disagree: extra=%v missed=%v", cross.ExtraInBMC, cross.MissedByBMC)
	}
	if len(cross.BMCBugs) != 1 || cross.BMCBugs[0].Kind != iss.ErrAssertFail {
		t.Fatalf("bug set = %v, want the one assert site", cross.BMCBugs)
	}
	if len(cross.BMCBugs) != len(cross.ConcolicBugs) {
		t.Fatalf("bug sets differ: bmc=%v concolic=%v", cross.BMCBugs, cross.ConcolicBugs)
	}
	if diff.Samples == 0 {
		t.Fatal("no path samples collected")
	}
	if diff.SatAgreed != diff.Samples {
		t.Errorf("only %d/%d sampled path conditions satisfiable", diff.SatAgreed, diff.Samples)
	}
	if cross.BMC.Complete && diff.Covered != diff.Samples {
		t.Errorf("only %d/%d sampled inputs covered by the guard partition", diff.Covered, diff.Samples)
	}
}

// TestSessionModeBMC: the Session front door. ModeBMC must produce a
// unified Report carrying the bmc section, the finding lowered to the
// common Finding shape, and an input that replays to the same error.
func TestSessionModeBMC(t *testing.T) {
	snap := guestSnap(t, "storm-s")
	rep := NewSession(snap, Config{Mode: ModeBMC}).Run(context.Background())
	if rep.Mode != ModeBMC {
		t.Fatalf("report mode = %v", rep.Mode)
	}
	if rep.BMC == nil {
		t.Fatal("report carries no BMC section")
	}
	if !rep.Exhausted {
		t.Fatalf("not exhausted: %q", rep.Stopped)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %d, want 1", len(rep.Findings))
	}
	f := rep.Findings[0]
	if f.Err.Kind != iss.ErrAssertFail {
		t.Fatalf("finding = %v, want assert", f.Err)
	}
	// The lowered input must concretely reproduce the bug on a clone.
	core := snap.Clone()
	core.Input = f.Input
	core.Run(snap.Cfg.MaxInstr)
	if core.Err == nil || core.Err.Kind != iss.ErrAssertFail || core.Err.PC != f.Err.PC {
		t.Fatalf("model input replays to %v, want assert at %#x", core.Err, f.Err.PC)
	}
}

// TestBMCDepthLadder: BMC.K=0 falls back to Budget.MaxInstrPerRun, then
// the snapshot default — and a tiny explicit K truncates.
func TestBMCDepthLadder(t *testing.T) {
	snap := guestSnap(t, "storm-s")
	if got := bmcDepth(snap, Config{}); got != int(snap.Cfg.MaxInstr) {
		t.Errorf("default depth = %d, want snapshot MaxInstr %d", got, snap.Cfg.MaxInstr)
	}
	if got := bmcDepth(snap, Config{Budget: Budget{MaxInstrPerRun: 77}}); got != 77 {
		t.Errorf("budget depth = %d, want 77", got)
	}
	if got := bmcDepth(snap, Config{BMC: BMCConfig{K: 9}}); got != 9 {
		t.Errorf("explicit depth = %d, want 9", got)
	}
	rep := NewSession(snap, Config{Mode: ModeBMC, BMC: BMCConfig{K: 20}}).
		Run(context.Background())
	if rep.BMC == nil || rep.BMC.Truncated == 0 {
		t.Fatalf("K=20 did not truncate (bmc=%+v)", rep.BMC)
	}
	if rep.Exhausted {
		t.Error("truncated run reported Exhausted")
	}
}
