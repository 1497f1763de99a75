package fuzz

import (
	"testing"

	"rvcte/internal/asm"
	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

const ramBase = 0x80000000
const ramSize = 1 << 20

// gateGuest hides an assertion failure behind a two-byte gate
// (buf[0]==0x80 && buf[1]==0xff). Both values sit in the fuzzer's
// interesting-8 table, so the deterministic stages climb the gate one
// coverage step at a time — the canonical coverage-guided story.
const gateGuest = `
_start:
	la a0, buf
	li a1, 4
	la a2, name
	li a7, 1
	ecall            # make_symbolic(buf, 4, "x")
	la a3, buf
	lbu t0, 0(a3)
	li t1, 0x80
	bne t0, t1, out
	lbu t0, 1(a3)
	li t1, 0xff
	bne t0, t1, out
	li a0, 0
	li a7, 3
	ecall            # CTE_assert(0): the planted bug
out:
	lbu a0, 2(a3)
	andi a0, a0, 3
	li a7, 0
	ecall
.data
buf: .space 4
name: .asciz "x"
`

func gateSnapshot(t *testing.T) *iss.Core {
	t.Helper()
	img, err := asm.Assemble(gateGuest, ramBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := iss.New(smt.NewBuilder(), iss.Config{RamBase: ramBase, RamSize: ramSize, MaxInstr: 100000})
	c.LoadImage(img.Origin, img.Bytes, img.Entry())
	return c
}

// TestFuzzerFindsGatedBug: starting from an empty seed, the
// deterministic interesting-value stages discover both gate bytes and
// the planted assertion failure within a small batch.
func TestFuzzerFindsGatedBug(t *testing.T) {
	f := New(gateSnapshot(t), Options{Seed: 1, Workers: 1})
	f.RunBatch(4000)
	st := f.Stats()
	if st.Execs != 4000 {
		t.Errorf("execs %d want 4000", st.Execs)
	}
	if st.MaxDemand != 4 {
		t.Errorf("demand %d want 4", st.MaxDemand)
	}
	if st.CorpusSize < 3 {
		t.Errorf("corpus %d want >=3 (baseline + two gate steps)", st.CorpusSize)
	}
	fs := f.Findings()
	if len(fs) != 1 {
		t.Fatalf("findings %d want exactly 1 (deduplicated)", len(fs))
	}
	if fs[0].Err.Kind != iss.ErrAssertFail {
		t.Errorf("finding kind %v want assertion failure", fs[0].Err.Kind)
	}
	if len(fs[0].Data) < 2 || fs[0].Data[0] != 0x80 || fs[0].Data[1] != 0xff {
		t.Errorf("finding input %x does not pass the gate", fs[0].Data)
	}
}

// TestFuzzerDeterministic: identical seeds at Workers=1 replay the exact
// same campaign.
func TestFuzzerDeterministic(t *testing.T) {
	run := func() (Stats, []Finding, []*Entry) {
		f := New(gateSnapshot(t), Options{Seed: 7, Workers: 1})
		f.RunBatch(1500)
		return f.Stats(), f.Findings(), f.Corpus()
	}
	s1, f1, c1 := run()
	s2, f2, c2 := run()
	if s1 != s2 {
		t.Errorf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	if len(f1) != len(f2) {
		t.Fatalf("finding counts diverged: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i].Exec != f2[i].Exec || string(f1[i].Data) != string(f2[i].Data) {
			t.Errorf("finding %d diverged", i)
		}
	}
	if len(c1) != len(c2) {
		t.Fatalf("corpus sizes diverged: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i].Sig != c2[i].Sig || string(c1[i].Data) != string(c2[i].Data) {
			t.Errorf("corpus entry %d diverged", i)
		}
	}
}

// TestFuzzerInject: an injected (solver-derived) input runs next, its
// coverage joins the corpus as an injected entry, and any bug it
// triggers is recorded.
func TestFuzzerInject(t *testing.T) {
	f := New(gateSnapshot(t), Options{Seed: 3, Workers: 1})
	f.RunBatch(1) // empty seed establishes the baseline
	f.Inject([]byte{0x80, 0xff, 0, 0}, 0)
	f.RunBatch(1)
	fs := f.Findings()
	if len(fs) != 1 {
		t.Fatalf("findings %d want 1 after injection", len(fs))
	}
	injected := false
	for _, e := range f.Corpus() {
		if e.Injected {
			injected = true
		}
	}
	if !injected {
		t.Error("injected input with new coverage not marked in corpus")
	}
	if st := f.Stats(); st.Injected != 1 {
		t.Errorf("injected counter %d want 1", st.Injected)
	}
}

// TestFuzzerStallSignal: SinceNewCover grows while coverage is flat.
func TestFuzzerStallSignal(t *testing.T) {
	f := New(gateSnapshot(t), Options{Seed: 11, Workers: 1})
	f.RunBatch(4000) // long enough to saturate this tiny guest
	f.RunBatch(200)
	if got := f.SinceNewCover(); got < 200 {
		t.Errorf("stall signal %d; want >=200 once coverage saturates", got)
	}
}

// TestFuzzerParallel: a multi-worker campaign on a shared snapshot finds
// the same bug (exercised under -race in the verify target).
func TestFuzzerParallel(t *testing.T) {
	f := New(gateSnapshot(t), Options{Seed: 5, Workers: 4})
	f.RunBatch(4000)
	if st := f.Stats(); st.Execs != 4000 {
		t.Errorf("execs %d want 4000", st.Execs)
	}
	if fs := f.Findings(); len(fs) != 1 {
		t.Errorf("findings %d want 1", len(fs))
	}
}

// TestEdgeMapCleanAfterStep: after every execution the worker's edge
// map is all zero again (the fuzzer zeroes only the touched slots, so a
// slot missing from the list would leak its count into the next
// execution), and the touched list names each slot once.
func TestEdgeMapCleanAfterStep(t *testing.T) {
	f := tcpipFuzzer(t, 2)
	ws := f.ws[0]
	maxTouched := 0
	for i := 0; i < 300; i++ {
		f.RunBatch(1)
		for j, n := range ws.edge {
			if n != 0 {
				t.Fatalf("exec %d: slot %d holds %d after the merge", i, j, n)
			}
		}
		seen := make(map[uint32]bool, len(ws.touched))
		for _, idx := range ws.touched {
			if seen[idx] {
				t.Fatalf("exec %d: slot %d listed twice", i, idx)
			}
			seen[idx] = true
		}
		maxTouched = max(maxTouched, len(ws.touched))
	}
	if maxTouched == 0 {
		t.Fatal("no execution touched the edge map")
	}
}
