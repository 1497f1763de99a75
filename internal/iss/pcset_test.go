package iss

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPCSetMatchesMap checks PCSet against a map[uint32]struct{}
// reference on random halfword-aligned PCs: some clusters start high and
// then add PCs below the first one (forcing rebases), one sits just
// below 0xFFFFFFFE, one at address 0. Each must yield the reference's
// PCs in ascending order, and Len must agree.
func TestPCSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		name       string
		first, lo  uint32 // first PC added; later PCs fall in [lo, lo+span)
		span, adds int
	}{
		{"ram-rebase", 0x80004000, 0x80000000, 0x10000, 3000},
		{"top", 0xFFFFFFFE, 0xFFFF0000, 0x10000, 2000},
		{"zero", 0x400, 0, 0x2000, 1000},
		{"sparse-rebase", 0x80100000, 0x80000000, 0x200000, 300},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s PCSet
			ref := map[uint32]struct{}{}
			add := func(pc uint32) {
				s.Add(pc)
				ref[pc] = struct{}{}
			}
			add(c.first)
			for i := 0; i < c.adds; i++ {
				add((c.lo + uint32(rng.Intn(c.span))) &^ 1)
			}
			add(c.lo) // the lowest PC of the range is always below the first
			checkPCSet(t, "set", &s, ref)
		})
	}
}

func checkPCSet(t *testing.T, what string, s *PCSet, ref map[uint32]struct{}) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Errorf("%s: Len %d, reference %d", what, s.Len(), len(ref))
	}
	var got []uint32
	s.Each(func(pc uint32) { got = append(got, pc) })
	want := make([]uint32, 0, len(ref))
	for pc := range ref {
		want = append(want, pc)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Each yields %d PCs, not the %d reference PCs in ascending order", what, len(got), len(want))
	}
}

// TestPCSetUnion checks the merge the exploration pool scores paths with:
// Union returns exactly the PCs new to the receiver, extends it in both
// directions, and leaves its argument unchanged.
func TestPCSetUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var acc PCSet
	ref := map[uint32]struct{}{}
	for round := 0; round < 50; round++ {
		var p PCSet
		pref := map[uint32]struct{}{}
		lo := 0x80000000 + uint32(rng.Intn(0x8000))&^1
		for i := 0; i < 1+rng.Intn(200); i++ {
			pc := (lo + uint32(rng.Intn(0x4000))) &^ 1
			p.Add(pc)
			pref[pc] = struct{}{}
		}
		fresh := 0
		for pc := range pref {
			if _, ok := ref[pc]; !ok {
				ref[pc] = struct{}{}
				fresh++
			}
		}
		if got := acc.Union(&p); got != fresh {
			t.Fatalf("round %d: Union added %d, reference %d", round, got, fresh)
		}
		checkPCSet(t, "union", &acc, ref)
		checkPCSet(t, "argument", &p, pref)
	}
	var empty PCSet
	if acc.Union(&empty) != 0 || empty.Union(&acc) != len(ref) {
		t.Error("union with an empty set")
	}
}
