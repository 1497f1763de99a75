package iss

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rvcte/internal/asm"
	"rvcte/internal/rv32"
	"rvcte/internal/smt"
)

// smcGuest patches one of its own instructions and loops back over it:
// the first pass executes `addi a0, zero, 1`, then the word is
// overwritten with `addi a0, zero, 42` (0x02A00513) and re-executed. A
// block cache that misses the store keeps serving the stale decode and
// exits 1 instead of 42.
const smcGuest = `
_start:
	li s0, 0
	la s1, patch
	la s2, newinst
	lw s2, 0(s2)
loop:
patch:
	addi a0, zero, 1
	bnez s0, done
	sw s2, 0(s1)
	li s0, 1
	j loop
done:
` + exitSeq + `
.data
newinst: .word 0x02A00513
`

func TestSMCInvalidatesCachedBlock(t *testing.T) {
	c := run(t, smcGuest)
	if !c.Exited || c.Err != nil {
		t.Fatalf("did not exit cleanly: %v", c.Err)
	}
	if c.ExitCode != 42 {
		t.Fatalf("exit code %d want 42 (stale cached block executed)", c.ExitCode)
	}
	if _, _, invals := c.BBStats(); invals == 0 {
		t.Error("self-modifying store must invalidate a cached block")
	}
}

// declineHook is an ExecHook that runs every instruction natively: it
// selects the uncached one-record path (decode per step).
func declineHook(*Core, rv32.Inst) bool { return false }

func TestSMCWithoutCacheMatches(t *testing.T) {
	c := buildCore(t, smcGuest)
	c.ExecHook = declineHook
	c.Run(0)
	if c.ExitCode != 42 {
		t.Fatalf("one-record path exit code %d want 42", c.ExitCode)
	}
}

// cloneGuest sums a small arithmetic series; every clone must compute
// the same result regardless of which clone decoded the shared blocks.
const cloneGuest = `
_start:
	li a0, 0
	li a1, 1
loop:
	add a0, a0, a1
	addi a1, a1, 1
	li a2, 100
	bleu a1, a2, loop
` + exitSeq

// TestCloneSharedBlocksConcurrent exercises the clone-safety contract
// under the race detector: many goroutines clone one frozen snapshot
// and run concurrently, racing to publish decoded blocks into the
// shared block table.
func TestCloneSharedBlocksConcurrent(t *testing.T) {
	snap := buildCore(t, cloneGuest)
	snap.Freeze()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				c := snap.Clone()
				c.Run(0)
				if c.Err != nil || c.ExitCode != 5050 {
					errs <- fmt.Errorf("clone exit=%d err=%v", c.ExitCode, c.Err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCloneSMCConcurrent runs the self-modifying guest from many
// concurrent clones of one frozen snapshot. Each clone patches its own
// copy-on-write page; the shared decoded blocks must be shadowed by the
// clone's dirty-page tracking, never mutated, and every clone must see
// its own patched instruction.
func TestCloneSMCConcurrent(t *testing.T) {
	snap := buildCore(t, smcGuest)
	snap.Freeze()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				c := snap.Clone()
				c.Run(0)
				if c.Err != nil || c.ExitCode != 42 {
					errs <- fmt.Errorf("smc clone exit=%d err=%v", c.ExitCode, c.Err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// equivGuest mixes constant loads (lui+addi via li, auipc+addi via la),
// compares feeding branches (slt+bnez), symbolic data, loads/stores and
// branches so the equivalence check covers the cached and one-record
// execution paths on the same trace.
const equivGuest = `
_start:
	la a0, buf
	li a1, 8
	la a2, name
	li a7, 1
	ecall              # make_symbolic(buf, 8, "x")
	la a3, buf
	li t0, 0
	li a4, 0
loop:
	lbu t1, 0(a3)
	li t2, 100
	slt t3, t1, t2
	bnez t3, small
	addi a4, a4, 7
small:
	add a4, a4, t1
	sw a4, 0(a3)       # overwrite data (exercises OnWrite on data pages)
	addi a3, a3, 4
	addi t0, t0, 1
	li t2, 2
	bltu t0, t2, loop
	lui a5, 0x12345
	addi a5, a5, 0x678
	add a0, a4, a5
` + exitSeq + `
.data
buf: .space 8
name: .asciz "x"
`

// TestCacheEquivalence runs the same concolic execution with the cache
// on and on the uncached one-record path (one instruction decoded per
// step, no cross-instruction state), and requires bit-identical
// architectural results: registers, counters, exit state, console
// output, trace conditions and edge coverage.
func TestCacheEquivalence(t *testing.T) {
	img, err := asm.Assemble(equivGuest, ramBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	input := []byte{3, 200, 7, 250, 1, 2, 3, 4}

	exec := func(oneRecord bool) *Core {
		c := New(smt.NewBuilder(), Config{RamBase: ramBase, RamSize: ramSize, MaxInstr: 1_000_000})
		c.LoadImage(img.Origin, img.Bytes, img.Entry())
		if oneRecord {
			c.ExecHook = declineHook
		}
		c.FuzzInput = input
		c.EdgeMap = make([]byte, 1<<16)
		c.Run(0)
		return c
	}

	ref := exec(true)
	got := exec(false)
	if got.Exited != ref.Exited || got.ExitCode != ref.ExitCode {
		t.Fatalf("exit (%v,%d) want (%v,%d)", got.Exited, got.ExitCode, ref.Exited, ref.ExitCode)
	}
	if got.InstrCount != ref.InstrCount || got.Cycles != ref.Cycles {
		t.Errorf("instr/cycles %d/%d want %d/%d", got.InstrCount, got.Cycles, ref.InstrCount, ref.Cycles)
	}
	for r := 0; r < 32; r++ {
		if got.Regs[r].C != ref.Regs[r].C {
			t.Errorf("x%d = %#x want %#x", r, got.Regs[r].C, ref.Regs[r].C)
		}
	}
	if !bytes.Equal(got.Output, ref.Output) {
		t.Errorf("output %q want %q", got.Output, ref.Output)
	}
	if len(got.Trace) != len(ref.Trace) {
		t.Fatalf("%d trace conditions want %d", len(got.Trace), len(ref.Trace))
	}
	for i := range ref.Trace {
		g, r := got.Trace[i], ref.Trace[i]
		if g.EPCLen != r.EPCLen || g.SiteIdx != r.SiteIdx || g.FlipFrom != r.FlipFrom || g.FlipTo != r.FlipTo {
			t.Errorf("trace[%d] = %+v want %+v", i, g, r)
		}
	}
	if !bytes.Equal(got.EdgeMap, ref.EdgeMap) {
		t.Error("edge coverage bitmap differs from the one-record path")
	}
}

// TestBBStatsCounters checks that a loop produces cache hits (the loop
// body block is decoded once, then reused).
func TestBBStatsCounters(t *testing.T) {
	c := run(t, cloneGuest)
	hits, misses, _ := c.BBStats()
	if misses == 0 {
		t.Error("expected at least one decode miss")
	}
	if hits < 90 {
		t.Errorf("loop of 100 iterations produced only %d block hits", hits)
	}
}

// TestDirtyLinesMatchReference drives markDirty with random write ranges
// across RAM (and straddling its ends) and checks cleanRange against a
// flat set of written 64-byte lines, on ranges around the writes, in
// every leaf of the dirty set. A clone's dirty set starts equal and
// diverges independently.
func TestDirtyLinesMatchReference(t *testing.T) {
	const base, size = 0x80000000, 4 << 20
	bc := newBBCache(base, size)
	ref := map[uint32]bool{}
	rng := rand.New(rand.NewSource(1))
	check := func(bc *bbCache, ref map[uint32]bool, at uint32) {
		t.Helper()
		for j := 0; j < 16; j++ {
			s := at - 256 + uint32(rng.Intn(512))
			if s < base || s > base+size-256 {
				continue
			}
			e := s + 1 + uint32(rng.Intn(255))
			want := true
			for l := (s - base) >> bbPageBits; l <= (e-1-base)>>bbPageBits; l++ {
				want = want && !ref[l]
			}
			if got := bc.cleanRange(s, e); got != want {
				t.Fatalf("cleanRange(%#x, %#x) = %v, reference %v", s, e, got, want)
			}
		}
	}
	mark := func(bc *bbCache, ref map[uint32]bool) uint32 {
		lo := base - 64 + uint32(rng.Intn(size+128))
		hi := lo + 1 + uint32(rng.Intn(200))
		bc.markDirty(lo, hi)
		for a := lo; a != hi; a++ {
			if a >= base && a < base+size {
				ref[(a-base)>>bbPageBits] = true
			}
		}
		return lo
	}
	for i := 0; i < 300; i++ {
		check(bc, ref, mark(bc, ref))
	}
	n := bc.cloneFor()
	nref := map[uint32]bool{}
	for l := range ref {
		nref[l] = true
	}
	for i := 0; i < 100; i++ {
		at := mark(n, nref)
		check(n, nref, at)
		check(bc, ref, at)
	}
}

// TestDirtySetCopyOnWrite: cloneFor shares every dirty leaf and leaves
// both sides without own bits; from then on each side's writes stay
// invisible to the other, and re-marking a line that is already dirty
// copies nothing. A fork checkpoint is cloned on every Resume: the
// resumed core shares the checkpoint's leaves, and neither Resume nor
// the resumed run writes into them.
func TestDirtySetCopyOnWrite(t *testing.T) {
	const base, size = 0x80000000, 4 << 20
	rng := rand.New(rand.NewSource(2))
	mark := func(bc *bbCache, ref map[uint32]bool) {
		lo := base + uint32(rng.Intn(size-256))
		hi := lo + 1 + uint32(rng.Intn(200))
		bc.markDirty(lo, hi)
		for l := (lo - base) >> bbPageBits; l <= (hi-1-base)>>bbPageBits; l++ {
			ref[l] = true
		}
	}
	check := func(what string, bc *bbCache, ref map[uint32]bool) {
		t.Helper()
		for l := uint32(0); l < size>>bbPageBits; l++ {
			a := base + l<<bbPageBits
			if got := bc.cleanRange(a, a+1); got == ref[l] {
				t.Fatalf("%s: line %#x clean=%v, reference dirty=%v", what, l, got, ref[l])
			}
		}
	}
	live, ref := newBBCache(base, size), map[uint32]bool{}
	for i := 0; i < 100; i++ {
		mark(live, ref)
	}
	n := live.cloneFor()
	nref := map[uint32]bool{}
	for l := range ref {
		nref[l] = true
	}
	for i, l := range live.dirty.leaves {
		if n.dirty.leaves[i] != l {
			t.Fatalf("leaf %d copied by cloneFor", i)
		}
	}
	for _, w := range live.dirty.own {
		if w != 0 {
			t.Fatal("cloneFor left an own bit on a shared leaf")
		}
	}
	var first uint32
	for l := range ref {
		first = l
		break
	}
	n.markDirty(base+first<<bbPageBits, base+first<<bbPageBits+1)
	if leaf := first >> dirtyLeafBits; n.dirty.leaves[leaf] != live.dirty.leaves[leaf] || n.dirty.own != nil {
		t.Fatal("re-marking a dirty line copied its leaf")
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			mark(live, ref)
		} else {
			mark(n, nref)
		}
	}
	check("source", live, ref)
	check("clone", n, nref)

	c := buildCore(t, `
	_start:
		la t1, buf
		li t0, 7
		sw t0, 0(t1)
		sw t0, 256(t1)
		la a0, x
		li a1, 4
		la a2, name
		li a7, 1
		ecall
		la a0, x
		lw a0, 0(a0)
		li a1, 5
		bltu a0, a1, small
		la t1, buf
		sw a0, 512(t1)
		li a0, 1
	`+exitSeq+`
	small:
		li a0, 0
	`+exitSeq+`
	.data
	x: .word 0
	name: .asciz "x"
	.align 2
	buf: .space 1024
	`)
	c.Freeze()
	c = c.Clone()
	c.CaptureForks = true
	c.Run(0)
	if len(c.Trace) != 1 {
		t.Fatalf("%d trace conditions, want 1 (err %v)", len(c.Trace), c.Err)
	}
	cp := c.Checkpoint(c.Trace[0].SiteIdx)
	if cp == nil {
		t.Fatal("no checkpoint at the branch")
	}
	ck := &cp.core.bb.dirty
	if ck.leaves == nil || ck.own != nil {
		t.Fatalf("checkpoint dirty set: leaves %v, own %v", ck.leaves != nil, ck.own)
	}
	before := make([]dirtyLeaf, len(ck.leaves))
	for i, l := range ck.leaves {
		if l != nil {
			before[i] = *l
		}
	}
	r := cp.Resume(1)
	for i, l := range ck.leaves {
		if r.bb.dirty.leaves[i] != l {
			t.Fatalf("Resume copied dirty leaf %d", i)
		}
	}
	r.ApplyModel(smt.Assignment{0: 9})
	r.Run(0)
	if r.ExitCode != 1 {
		t.Fatalf("resumed run exited %d, want 1", r.ExitCode)
	}
	for i, l := range ck.leaves {
		if l != nil && *l != before[i] || ck.own != nil {
			t.Fatalf("the resumed run wrote checkpoint leaf %d", i)
		}
	}
}

// TestBlockTablePublish: the shared table serves a block at its exact
// start PC only, keeps the first of two blocks published at one PC, and
// has no slot for odd PCs or PCs outside RAM. Freezing carries over the
// shared blocks that are clean for the freezing core and drops the ones
// overlapping lines it wrote.
func TestBlockTablePublish(t *testing.T) {
	const base, size = 0x80000000, 1 << 20
	tb := newBlockTable(base, size)
	first := &bblock{start: base + 0x1004, end: base + 0x1010}
	if got := tb.publish(first); got != first {
		t.Fatal("first publisher lost")
	}
	if got := tb.publish(&bblock{start: first.start, end: first.end}); got != first {
		t.Fatal("second publisher replaced the first")
	}
	if tb.load(first.start) != first || tb.load(first.start+2) != nil || tb.load(first.start+1) != nil {
		t.Fatal("lookup does not key on the exact start PC")
	}
	last := &bblock{start: base + size - 2, end: base + size}
	if tb.publish(last) != last || tb.load(last.start) != last {
		t.Fatal("the last halfword of RAM has no slot")
	}
	for _, pc := range []uint32{base - 2, base + size, 0} {
		if tb.publish(&bblock{start: pc, end: pc + 4}) != nil || tb.load(pc) != nil {
			t.Fatalf("pc %#x outside RAM got a slot", pc)
		}
	}

	bc := newBBCache(base, size)
	bc.shared = tb
	bc.markDirty(first.start, first.start+4)
	bc.freeze()
	if bc.shared == tb || bc.shared.load(first.start) != nil || bc.shared.load(last.start) != last {
		t.Fatal("freeze kept a block over a written line or dropped a clean one")
	}
}

// TestExecHookTakesOver: a core with an ExecHook shows the hook every
// retired instruction, skips the native handler of each instruction the
// hook takes over, and never touches the block cache.
func TestExecHookTakesOver(t *testing.T) {
	c := buildCore(t, `
	_start:
		li a0, 1
		addi a0, a0, 2
		addi a0, a0, 4
	`+exitSeq)
	seen := 0
	c.ExecHook = func(c *Core, in rv32.Inst) bool {
		seen++
		if in.Op == rv32.OpADDI && in.Imm == 4 {
			c.PC += uint32(in.Size) // take it over as a nop
			return true
		}
		return false
	}
	c.Run(0)
	if !c.Exited || c.ExitCode != 3 {
		t.Fatalf("exit (%v, %d) err=%v, want 3: the hooked addi must not also run natively", c.Exited, c.ExitCode, c.Err)
	}
	if uint64(seen) != c.InstrCount {
		t.Fatalf("hook saw %d instructions, %d retired", seen, c.InstrCount)
	}
	if hits, misses, _ := c.BBStats(); hits+misses != 0 {
		t.Fatalf("hooked core used the block cache: %d hits, %d misses", hits, misses)
	}
}
