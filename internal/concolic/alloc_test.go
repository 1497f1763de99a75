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
// tables plus the one line a store changes (~20 KB measured). The bound
// is one dense 4096-entry shadow (32 KB); the dense per-page shadow this
// layout replaced allocated 150 531 bytes for the same operation.
func TestForkBytesBelowDenseShadow(t *testing.T) {
	const bound = pageSize * 8 // one dense []*smt.Expr shadow
	if got := forkBytes(t); got >= bound {
		t.Errorf("Clone+Reconcretize+store allocated %.0f bytes, want < %d", got, bound)
	} else {
		t.Logf("Clone+Reconcretize+store: %.0f bytes", got)
	}
}
