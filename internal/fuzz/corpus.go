package fuzz

import (
	"encoding/binary"
	"math/bits"
	"sort"
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
	Sig  uint64    // signature of the bucketized edge set
	Cov  []edgeBit // sparse bucketized coverage of one execution
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

// bucketize converts a raw edge map into sparse bucketized coverage and
// its signature hash (FNV-1a over the (index, bucket) pairs).
func bucketize(edge []byte) ([]edgeBit, uint64) {
	var cov []edgeBit
	hash := uint64(0xcbf29ce484222325)
	var word [12]byte
	// Skip zero bytes eight at a time: the map is sparse (a few thousand
	// edges in a 64 KiB map) and this scan runs once per execution.
	for i := 0; i < len(edge); i += 8 {
		if binary.LittleEndian.Uint64(edge[i:]) == 0 {
			continue
		}
		for j := i; j < i+8; j++ {
			if edge[j] == 0 {
				continue
			}
			b := bucketLUT[edge[j]]
			cov = append(cov, edgeBit{Idx: uint32(j), Bits: b})
			binary.LittleEndian.PutUint32(word[:4], uint32(j))
			word[4] = b
			for _, c := range word[:5] {
				hash ^= uint64(c)
				hash *= 0x100000001b3
			}
		}
	}
	return cov, hash
}

const (
	lowBits  = 0x7f7f7f7f7f7f7f7f
	highBits = 0x8080808080808080
)

// bucketLUT16 is bucketLUT applied to two packed counts at once, so
// classifying eight counts takes four lookups.
var bucketLUT16 = func() (t [1 << 16]uint16) {
	for i := range t {
		t[i] = uint16(bucketLUT[i&0xff]) | uint16(bucketLUT[i>>8])<<8
	}
	return
}()

// classify8 maps the eight raw hit counts packed in w to their count
// classes (bucketLUT), byte for byte.
func classify8(w uint64) uint64 {
	return uint64(bucketLUT16[uint16(w)]) |
		uint64(bucketLUT16[uint16(w>>16)])<<16 |
		uint64(bucketLUT16[uint16(w>>32)])<<32 |
		uint64(bucketLUT16[uint16(w>>48)])<<48
}

// mergeCoverage folds one execution's raw edge map into the virgin map
// eight entries at a time: it classifies the counts, ORs the classes
// into virgin, and returns how many virgin bits it set (0 = nothing new)
// and how many virgin entries went from zero to nonzero. It is the
// word-wise equivalent of virginMerge(virgin, cov) for bucketize's cov,
// without materializing cov; len(edge) must be a multiple of 8.
func mergeCoverage(virgin, edge []byte) (newBits, newEntries int) {
	for i := 0; i < len(edge); i += 8 {
		w := binary.LittleEndian.Uint64(edge[i:])
		if w == 0 {
			continue
		}
		v := binary.LittleEndian.Uint64(virgin[i:])
		nb := classify8(w) &^ v
		if nb == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(virgin[i:], v|nb)
		newBits += bits.OnesCount64(nb)
		// High bit of every zero byte of v, and of every nonzero byte of
		// nb (carry-free: the low seven bits are added separately).
		zeroV := ^((v&lowBits + lowBits) | v | lowBits)
		setNB := ((nb&lowBits + lowBits) | nb) & highBits
		newEntries += bits.OnesCount64(zeroV & setNB)
	}
	return newBits, newEntries
}

// minimizeCorpus implements afl-cmin's greedy reduction: for every
// covered edge bit keep the smallest entry touching it, then drop every
// entry that is nobody's best. Returns the retained entries (order
// preserved) — the caller swaps its corpus for the result.
func minimizeCorpus(entries []*Entry) []*Entry {
	type bitKey struct {
		idx uint32
		bit uint8
	}
	best := make(map[bitKey]*Entry)
	for _, e := range entries {
		for _, eb := range e.Cov {
			for bits := eb.Bits; bits != 0; bits &= bits - 1 {
				k := bitKey{eb.Idx, bits & -bits}
				cur, ok := best[k]
				if !ok || len(e.Data) < len(cur.Data) ||
					(len(e.Data) == len(cur.Data) && e.ID < cur.ID) {
					best[k] = e
				}
			}
		}
	}
	keep := make(map[int]bool, len(best))
	for _, e := range best {
		keep[e.ID] = true
	}
	var out []*Entry
	for _, e := range entries {
		// Never drop an entry whose deterministic stage is still running:
		// its remaining mutations are paid-for future coverage.
		if keep[e.ID] || e.DetPos >= 0 {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
