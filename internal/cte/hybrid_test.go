package cte

import (
	"bytes"
	"context"
	"testing"

	"rvcte/internal/iss"
	"rvcte/internal/qcache"
	"rvcte/internal/smt"
)

// magicSrc hides an assertion failure behind a 32-bit magic-word
// comparison — the canonical fuzzer-blind gate (2^-32 per random
// guess) that one solver query opens.
const magicSrc = `
_start:
	la a0, buf
	li a1, 8
	la a2, name
	li a7, 1
	ecall            # make_symbolic(buf, 8, "x")
	la a3, buf
	lw t0, 0(a3)
	li t1, 0x1badc0de
	bne t0, t1, out
	li a0, 0
	li a7, 3
	ecall            # CTE_assert(0): the gated bug
out:
	lbu a0, 4(a3)
	andi a0, a0, 1
	li a7, 0
	ecall
.data
buf: .space 8
name: .asciz "x"
`

// initMagicSrc prepends a deterministic init loop (no input dependence)
// to the magic gate, for the skip-init optimization test.
const initMagicSrc = `
_start:
	li t0, 0
	li t1, 2000
	li t2, 0
init:
	addi t2, t2, 3
	addi t0, t0, 1
	bltu t0, t1, init
	la a0, buf
	li a1, 8
	la a2, name
	li a7, 1
	ecall
	la a3, buf
	lw t0, 0(a3)
	li t1, 0x1badc0de
	bne t0, t1, out
	li a0, 0
	li a7, 3
	ecall
out:
	li a0, 0
	li a7, 0
	ecall
.data
buf: .space 8
name: .asciz "x"
`

// TestHybridSolvesMagicGate: random mutation cannot pass the 32-bit
// gate; a coverage stall escalates to the concolic engine, one solved
// flip is injected back, and the fuzzer's next execution finds the bug.
func TestHybridSolvesMagicGate(t *testing.T) {
	rep := NewSession(snapshot(t, magicSrc), Config{Mode: ModeHybrid, Seed: 1, StopOnError: true, Budget: Budget{MaxExecs: 50_000}, Fuzz: FuzzConfig{Batch: 200}}).Run(context.Background())
	if len(rep.Findings) != 1 {
		t.Fatalf("findings %d want 1 (stopped: %s, %+v)", len(rep.Findings), rep.Stopped, rep.Fuzz)
	}
	f := rep.Findings[0]
	if f.Err.Kind != iss.ErrAssertFail {
		t.Errorf("finding kind %v want assertion failure", f.Err.Kind)
	}
	if len(f.Data) < 4 || !bytes.Equal(f.Data[:4], []byte{0xde, 0xc0, 0xad, 0x1b}) {
		t.Errorf("finding input %x does not carry the solved magic word", f.Data)
	}
	if rep.Fuzz.Escalations == 0 || rep.Fuzz.Solves == 0 {
		t.Errorf("bug requires the concolic assist: escalations=%d solves=%d",
			rep.Fuzz.Escalations, rep.Fuzz.Solves)
	}
	if rep.Stopped != "stop-on-error" {
		t.Errorf("stopped = %q want stop-on-error", rep.Stopped)
	}
	if rep.Queries == 0 {
		t.Error("no SAT queries recorded")
	}
}

// TestHybridResume: a second Run of a hybrid Session continues the
// first — the corpus and exec count carry over, the bug found by the
// first Run is not reported again, the flip the first Run solved is not
// solved a second time, and although the first Run ended on a dry
// escalation streak the second one fuzzes before escalating again.
func TestHybridResume(t *testing.T) {
	sess := NewSession(snapshot(t, magicSrc), Config{Mode: ModeHybrid, Seed: 1, Budget: Budget{MaxExecs: 5_000}, Fuzz: FuzzConfig{Batch: 200}})
	first := sess.Run(context.Background())
	if len(first.Findings) != 1 || first.Queries == 0 {
		t.Fatalf("first run: findings %d queries %d want 1 and >0 (stopped: %s)", len(first.Findings), first.Queries, first.Stopped)
	}
	second := sess.Run(context.Background())
	if len(second.Findings) != 0 {
		t.Errorf("second run re-reported %d findings", len(second.Findings))
	}
	if second.Queries != 0 {
		t.Errorf("second run solved %d flips again", second.Queries)
	}
	if first.Stopped != "dry" {
		t.Fatalf("first run stopped %q, want dry", first.Stopped)
	}
	if second.Fuzz.Execs <= first.Fuzz.Execs || len(second.Fuzz.Corpus) < len(first.Fuzz.Corpus) {
		t.Errorf("second run did not continue the first: execs %d -> %d, corpus %d -> %d",
			first.Fuzz.Execs, second.Fuzz.Execs, len(first.Fuzz.Corpus), len(second.Fuzz.Corpus))
	}
	if second.Fuzz.Escalations <= first.Fuzz.Escalations {
		t.Errorf("escalations not cumulative: %d -> %d", first.Fuzz.Escalations, second.Fuzz.Escalations)
	}
	t.Logf("first: %s execs %d esc %d; second: %s execs %d esc %d",
		first.Stopped, first.Fuzz.Execs, first.Fuzz.Escalations, second.Stopped, second.Fuzz.Execs, second.Fuzz.Escalations)
}

// TestHybridWithCache: the qcache slots in front of flip solving exactly
// as in the pure-concolic engine, and the run still finds the bug.
func TestHybridWithCache(t *testing.T) {
	snap := snapshot(t, magicSrc)
	rep := NewSession(snap, Config{Mode: ModeHybrid, Seed: 1, StopOnError: true, Budget: Budget{MaxExecs: 50_000}, Fuzz: FuzzConfig{Batch: 200}, Cache: CacheConfig{Queries: qcache.New(snap.B, qcache.Options{})}}).Run(context.Background())
	if len(rep.Findings) != 1 {
		t.Fatalf("findings %d want 1", len(rep.Findings))
	}
	if rep.Cache == nil {
		t.Fatal("cache stats missing from report")
	}
	if rep.Cache.SolverCalls == 0 {
		t.Error("cache recorded no solver traffic")
	}
}

// TestHybridDeterministicAtJ1: for a fixed seed and one worker, two
// campaigns are replicas.
func TestHybridDeterministicAtJ1(t *testing.T) {
	run := func() *Report {
		return NewSession(snapshot(t, magicSrc), Config{Mode: ModeHybrid, Seed: 9, Workers: 1, Budget: Budget{MaxExecs: 3000}, Fuzz: FuzzConfig{Batch: 150}}).Run(context.Background())
	}
	a, b := run(), run()
	if a.Fuzz.Execs != b.Fuzz.Execs || a.Fuzz.CorpusSize != b.Fuzz.CorpusSize ||
		a.Fuzz.Edges != b.Fuzz.Edges {
		t.Errorf("fuzz stats diverged:\n%+v\n%+v", a.Fuzz, b.Fuzz)
	}
	if a.Fuzz.Escalations != b.Fuzz.Escalations || a.Fuzz.Solves != b.Fuzz.Solves ||
		a.Fuzz.FlipsAttempted != b.Fuzz.FlipsAttempted || a.Queries != b.Queries {
		t.Errorf("concolic stats diverged: %d/%d/%d/%d vs %d/%d/%d/%d",
			a.Fuzz.Escalations, a.Fuzz.Solves, a.Fuzz.FlipsAttempted, a.Queries,
			b.Fuzz.Escalations, b.Fuzz.Solves, b.Fuzz.FlipsAttempted, b.Queries)
	}
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("finding counts diverged: %d vs %d", len(a.Findings), len(b.Findings))
	}
	for i := range a.Findings {
		if !bytes.Equal(a.Findings[i].Data, b.Findings[i].Data) ||
			a.Findings[i].Exec != b.Findings[i].Exec {
			t.Errorf("finding %d diverged", i)
		}
	}
}

// TestHybridSkipInit: the shared init prefix is executed once into the
// working snapshot, and the gate is still solvable from there.
func TestHybridSkipInit(t *testing.T) {
	rep := NewSession(snapshot(t, initMagicSrc), Config{Mode: ModeHybrid, Seed: 2, StopOnError: true, Budget: Budget{MaxExecs: 50_000}, Fuzz: FuzzConfig{Batch: 200}}).Run(context.Background())
	if rep.Fuzz.SkipInitInstrs < 3000 {
		t.Errorf("skip-init advanced only %d instructions; the init loop alone is ~6000",
			rep.Fuzz.SkipInitInstrs)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings %d want 1 (stopped: %s)", len(rep.Findings), rep.Stopped)
	}
	if rep.Findings[0].Err.Kind != iss.ErrAssertFail {
		t.Errorf("finding kind %v", rep.Findings[0].Err.Kind)
	}
}

// TestHybridParallel: a -j 4 campaign (four fuzz executors; flips are
// solved in path order on one solver) still finds the gated bug; run
// under -race by the verify target.
func TestHybridParallel(t *testing.T) {
	rep := NewSession(snapshot(t, magicSrc), Config{Mode: ModeHybrid, Seed: 3, Workers: 4, StopOnError: true, Budget: Budget{MaxExecs: 50_000}, Fuzz: FuzzConfig{Batch: 200}}).Run(context.Background())
	if len(rep.Findings) != 1 {
		t.Fatalf("findings %d want 1 (stopped: %s)", len(rep.Findings), rep.Stopped)
	}
}

// TestHybridDryTermination: a gate-free program saturates coverage
// immediately; after DryEscalations fruitless escalations the run ends
// on its own.
func TestHybridDryTermination(t *testing.T) {
	rep := NewSession(snapshot(t, twoPathSrc), Config{Mode: ModeHybrid, Seed: 4, Fuzz: FuzzConfig{Batch: 100, DryEscalations: 2}}).Run(context.Background())
	if rep.Stopped != "dry" {
		t.Errorf("stopped = %q want dry", rep.Stopped)
	}
	if rep.Fuzz.Execs == 0 || rep.Fuzz.CorpusSize == 0 {
		t.Errorf("no fuzzing happened before drying out: %+v", rep.Fuzz)
	}
}

// TestSolvedInput: model values land on the stream offsets their
// variables consumed, little-endian, and unconstrained offsets keep the
// incumbent bytes.
func TestSolvedInput(t *testing.T) {
	b := smt.NewBuilder()
	v8 := b.Var(8, "a")
	v32 := b.Var(32, "b")
	v8b := b.Var(8, "c")
	order := []int{int(v8.Val), int(v32.Val), int(v8b.Val)}
	base := []byte{0x11, 0x22} // shorter than the 6-byte demand
	model := smt.Assignment{
		int(v8.Val):  0x7f,
		int(v32.Val): 0xdeadbeef,
		// v8b unconstrained: keeps base byte (zero-extended here)
	}
	got := solvedInput(base, order, b, model)
	want := []byte{0x7f, 0xef, 0xbe, 0xad, 0xde, 0x00}
	if !bytes.Equal(got, want) {
		t.Errorf("solvedInput = %x want %x", got, want)
	}
	if !bytes.Equal(base, []byte{0x11, 0x22}) {
		t.Error("solvedInput mutated its base input")
	}
}
