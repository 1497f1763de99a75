//go:build !race

// The race detector instruments allocations and adds its own, so byte
// counts are only meaningful without it.

package concolic

import (
	"fmt"
	"runtime"
	"testing"

	"rvcte/internal/smt"
)

// forkBytes returns the mean heap bytes one fork-shaped memory operation
// allocates: Clone a memory holding four symbolic pages, Reconcretize it
// under a model that changes every symbolic byte (copying all four
// pages), then store one symbolic byte into an existing shadow line.
func forkBytes(t *testing.T) float64 {
	t.Helper()
	b := smt.NewBuilder()
	m := NewMemory(b)
	model := smt.Assignment{}
	for pg := uint32(0); pg < 4; pg++ {
		// About 30 symbolic bytes per page, spread over two lines, among
		// concrete data — the shape of a packet buffer in a guest page.
		base := 0x20000 + pg*pageSize
		m.WriteBytes(base, make([]byte, pageSize))
		for _, off := range []uint32{0x40, 0x200} {
			for _, e := range m.MakeSymbolic(base+off, make([]byte, 15), fmt.Sprintf("p%d_%x", pg, off)) {
				model[int(e.Val)] = 0xa5
			}
		}
	}
	m.Freeze()
	ev := smt.NewEvaluator(model)
	defer ev.Release()
	st := b.Var(8, "store")
	op := func() {
		c := m.Clone()
		c.Reconcretize(ev)
		c.StoreByte(0x20000+0x41, 1, st)
	}
	op() // warm the evaluator's memo
	const runs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestForkBytesBelowDenseShadow guards the line-chunked shadow: a fork of
// a memory with four symbolic pages copies only their data and line
// tables plus the one line a store changes (5 633 bytes measured with
// 1 KB pages, ~20 KB with 4 KB pages). The bound is one dense
// pageSize-entry shadow (8 KB); the dense per-page shadow this layout
// replaced allocated 150 531 bytes for the same operation on 4 KB pages.
func TestForkBytesBelowDenseShadow(t *testing.T) {
	const bound = pageSize * 8 // one dense []*smt.Expr shadow
	if got := forkBytes(t); got >= bound {
		t.Errorf("Clone+Reconcretize+store allocated %.0f bytes, want < %d", got, bound)
	} else {
		t.Logf("Clone+Reconcretize+store: %.0f bytes", got)
	}
}

// TestStoreAfterCloneCopiesOnePage: one concrete store into a clone of a
// multi-page memory replaces exactly one page table entry, and the copy
// allocates one page of pageSize data bytes, not more.
func TestStoreAfterCloneCopiesOnePage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one pool shard, no migration
	b := smt.NewBuilder()
	m := NewMemory(b)
	const base, pages = 0x20000, 8
	m.WriteBytes(base, make([]byte, pages*pageSize))
	m.MakeSymbolic(base+3*pageSize+5, make([]byte, 4), "x")
	c := m.Clone()
	for pagePool.Get() != nil { // a pooled page would hide the copy
	}
	const addr = base + 3*pageSize + 0x21
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.StoreByte(addr, 0x5a, nil)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got < pageSize || got >= 2*pageSize {
		t.Errorf("one store after Clone allocated %d bytes, want one %d-byte page", got, pageSize)
	}
	copied := 0
	for idx, p := range c.pages {
		if p != m.pages[idx] {
			copied++
			if idx != addr>>pageBits {
				t.Errorf("page %#x copied, want only %#x", idx, addr>>pageBits)
			}
		}
	}
	if copied != 1 || len(c.pages) != len(m.pages) {
		t.Fatalf("%d pages copied of %d (original %d), want 1", copied, len(c.pages), len(m.pages))
	}
	if got, _ := m.LoadByteRaw(addr); got != 0 {
		t.Error("the clone's store reached the original")
	}
	if got, sym := c.LoadByteRaw(base + 3*pageSize + 5); got != 0 || sym == nil {
		t.Error("the copy lost the page's symbolic shadow")
	}
}
