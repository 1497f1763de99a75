//go:build !race

// The race detector instruments allocations and adds its own, so byte
// counts are only meaningful without it.

package fuzz

import (
	"runtime"
	"testing"
)

// TestExecBytesBounded bounds the heap bytes one fuzz execution of the
// buggy TCP/IP stack allocates, after a warm-up that fills the shared
// block table. A fuzzer that built sparse coverage for every execution,
// kept a RAM-wide dirty-line bitset per clone and allocated every
// copied-on-write page afresh allocated ~124 KB per execution here; with
// coverage built only for admitted entries, a dirty set sized by the
// pages written and released pages reused, ~6 KB remain (the core clone,
// its page table, its dirty set). The bound is 16 KB, under a quarter of
// the old figure with room for pages the garbage collector takes from
// the reuse pool.
func TestExecBytesBounded(t *testing.T) {
	f := tcpipFuzzer(t, 3)
	f.RunBatch(300)
	const runs = 1000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f.RunBatch(runs)
	runtime.ReadMemStats(&after)
	perExec := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes/exec", perExec)
	const bound = 16 << 10
	if perExec > bound {
		t.Errorf("%.0f bytes allocated per execution, bound %d", perExec, bound)
	}
}
