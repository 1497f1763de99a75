package fuzz

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// edgeBit is one covered edge in bucketized form: the edge-map index and
// the hit-count bucket bits the execution set there.
type edgeBit struct {
	Idx  uint32
	Bits uint8
}

// Entry is one corpus input together with its coverage accounting.
type Entry struct {
	ID   int
	Data []byte
	Sig  uint64 // signature of the bucketized edge set
	// NewBits counts the virgin edge-map bits this entry set first —
	// the basis of its energy.
	NewBits int
	Picks   int    // times this entry has been selected for mutation
	Exec    uint64 // global exec index when the entry was added
	DetPos  int    // deterministic-stage cursor (-1 when exhausted)
	// Injected marks inputs fed back by the concolic assist; Bound is an
	// opaque generational tag they carry (the hybrid driver uses it to
	// skip already-flipped trace-condition sites on re-escalation);
	// Escalations counts how often the hybrid loop escalated this entry.
	Injected    bool
	Bound       int
	Escalations int
}

// energy weights corpus scheduling: entries that discovered more new
// edges, are shorter, and have been fuzzed less often get more picks
// (afl's perf_score, radically simplified).
func (e *Entry) energy() float64 {
	sc := 1.0 + float64(e.NewBits)
	sc /= 1.0 + float64(len(e.Data))/1024.0
	sc /= 1.0 + float64(e.Picks)/32.0
	if e.Injected {
		// Solver-derived inputs sit exactly on a new branch polarity;
		// mutating around them is how the hybrid loop exploits a solve.
		sc *= 2
	}
	return sc
}

// bucketLUT maps a raw edge hit count to its afl count-class bit.
var bucketLUT = func() (t [256]byte) {
	set := func(lo, hi int, v byte) {
		for i := lo; i <= hi; i++ {
			t[i] = v
		}
	}
	t[1] = 1
	t[2] = 2
	t[3] = 4
	set(4, 7, 8)
	set(8, 15, 16)
	set(16, 31, 32)
	set(32, 127, 64)
	set(128, 255, 128)
	return
}()

// bucketize converts the raw counts of an execution into sparse
// bucketized coverage and its signature hash (FNV-1a over the (index,
// bucket) pairs in ascending index order). touched lists the nonzero
// slots of edge (iss.Core.EdgeTouched); it is sorted in place.
func bucketize(edge []byte, touched []uint32) ([]edgeBit, uint64) {
	slices.Sort(touched)
	cov := make([]edgeBit, 0, len(touched))
	hash := uint64(0xcbf29ce484222325)
	var word [5]byte
	for _, i := range touched {
		b := bucketLUT[edge[i]]
		cov = append(cov, edgeBit{Idx: i, Bits: b})
		binary.LittleEndian.PutUint32(word[:4], i)
		word[4] = b
		for _, c := range word {
			hash ^= uint64(c)
			hash *= 0x100000001b3
		}
	}
	return cov, hash
}

// mergeTouched folds one execution's raw counts into the virgin map: it
// classifies the count of every touched slot, ORs the class into virgin,
// and returns how many virgin bits it set (0 = nothing new) and how many
// virgin entries went from zero to nonzero. It visits only the slots in
// touched, in any order; for the full touched list it equals
// virginMerge(virgin, cov) for bucketize's cov, without building cov.
func mergeTouched(virgin, edge []byte, touched []uint32) (newBits, newEntries int) {
	for _, i := range touched {
		v := virgin[i]
		nb := bucketLUT[edge[i]] &^ v
		if nb == 0 {
			continue
		}
		if v == 0 {
			newEntries++
		}
		virgin[i] = v | nb
		newBits += bits.OnesCount8(nb)
	}
	return newBits, newEntries
}
