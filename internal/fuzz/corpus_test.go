package fuzz

import (
	"math/bits"
	"testing"
)

// TestBucketize: raw hit counts map to afl count classes, the touched
// list is visited in ascending slot order whatever order it comes in,
// and the signature is content-sensitive.
func TestBucketize(t *testing.T) {
	edge := make([]byte, 64)
	edge[3] = 1    // bucket 1
	edge[10] = 3   // bucket 4
	edge[17] = 9   // bucket 16
	edge[40] = 200 // bucket 128
	touched := func() []uint32 { return []uint32{17, 3, 40, 10} }
	cov, sig := bucketize(edge, touched())
	want := []edgeBit{{3, 1}, {10, 4}, {17, 16}, {40, 128}}
	if len(cov) != len(want) {
		t.Fatalf("cov length %d want %d", len(cov), len(want))
	}
	for i, eb := range cov {
		if eb != want[i] {
			t.Errorf("cov[%d] = %+v want %+v", i, eb, want[i])
		}
	}
	_, sig2 := bucketize(edge, []uint32{3, 10, 17, 40})
	if sig != sig2 {
		t.Error("signature depends on the touched list's order")
	}
	edge[3] = 2 // different bucket, same edges
	if _, sig3 := bucketize(edge, touched()); sig3 == sig {
		t.Error("bucket change did not change signature")
	}
}

// virginMerge ORs cov into the virgin map and returns how many
// previously-unseen bits it set (0 = nothing new). It is the byte-wise
// reference for mergeTouched.
func virginMerge(virgin []byte, cov []edgeBit) int {
	n := 0
	for _, eb := range cov {
		if newBits := eb.Bits &^ virgin[eb.Idx]; newBits != 0 {
			virgin[eb.Idx] |= newBits
			n += bits.OnesCount8(newBits)
		}
	}
	return n
}

// TestVirginMerge: new bits are counted once; re-merging the same
// coverage yields zero.
func TestVirginMerge(t *testing.T) {
	virgin := make([]byte, 64)
	cov := []edgeBit{{1, 1}, {2, 4}, {3, 128}}
	if n := virginMerge(virgin, cov); n != 3 {
		t.Errorf("first merge counted %d bits want 3", n)
	}
	if n := virginMerge(virgin, cov); n != 0 {
		t.Errorf("re-merge counted %d bits want 0", n)
	}
	// A deeper bucket on a known edge is still new information.
	if n := virginMerge(virgin, []edgeBit{{1, 2}}); n != 1 {
		t.Errorf("new bucket on known edge counted %d want 1", n)
	}
}

// TestEnergyOrdering: more new coverage, shorter data, and fewer picks
// all increase energy; injected entries get a boost.
func TestEnergyOrdering(t *testing.T) {
	base := Entry{Data: make([]byte, 64), NewBits: 4}
	richer := base
	richer.NewBits = 16
	if richer.energy() <= base.energy() {
		t.Error("more new bits should mean more energy")
	}
	tired := base
	tired.Picks = 1000
	if tired.energy() >= base.energy() {
		t.Error("heavily-picked entries should decay")
	}
	injected := base
	injected.Injected = true
	if injected.energy() <= base.energy() {
		t.Error("solver-derived entries should be prioritized")
	}
}
