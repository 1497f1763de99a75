package fuzz

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// mergeMapLen is the edge and virgin map size FuzzCoverageMerge works on:
// small enough that random inputs fill every count class and every
// virgin state.
const mergeMapLen = 64

// scanCoverage is the full-map reference for bucketize: it scans every
// slot of edge in ascending order and hashes the nonzero ones exactly as
// bucketize hashes its touched list.
func scanCoverage(edge []byte) ([]edgeBit, uint64) {
	var cov []edgeBit
	hash := uint64(0xcbf29ce484222325)
	var word [5]byte
	for i, n := range edge {
		if n == 0 {
			continue
		}
		b := bucketLUT[n]
		cov = append(cov, edgeBit{Idx: uint32(i), Bits: b})
		binary.LittleEndian.PutUint32(word[:4], uint32(i))
		word[4] = b
		for _, c := range word {
			hash ^= uint64(c)
			hash *= 0x100000001b3
		}
	}
	return cov, hash
}

// touchedSlots lists the nonzero slots of edge in ascending order, as the
// ISS reports them for a map that started all zero (up to order).
func touchedSlots(edge []byte) []uint32 {
	var touched []uint32
	for i, n := range edge {
		if n != 0 {
			touched = append(touched, uint32(i))
		}
	}
	return touched
}

// FuzzCoverageMerge checks the touched-slot merge against the byte-wise
// reference (a full scan, then virginMerge) on arbitrary edge and virgin
// maps. mergeTouched must count the same new bits and the same
// zero-to-nonzero virgin entries and leave the same virgin map, whether
// the touched list comes in ascending or in shuffled order; bucketize
// over either order must give the full scan's coverage and signature.
// The input's first mergeMapLen bytes are the raw edge counts, the next
// mergeMapLen the virgin map (zero-padded when short). The seed corpus
// in testdata/fuzz/FuzzCoverageMerge holds an empty input, a map whose
// counts hit every class boundary against an empty virgin map, and maps
// against partly and fully saturated virgin maps.
func FuzzCoverageMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := make([]byte, 2*mergeMapLen)
		copy(in, data)
		edge, virgin := in[:mergeMapLen], in[mergeMapLen:]

		wantCov, wantSig := scanCoverage(edge)
		want := append([]byte(nil), virgin...)
		wantEntries := 0
		for _, eb := range wantCov {
			if want[eb.Idx] == 0 {
				wantEntries++
			}
		}
		wantBits := virginMerge(want, wantCov)

		h := fnv.New64a()
		h.Write(data)
		shuffled := touchedSlots(edge)
		rand.New(rand.NewSource(int64(h.Sum64()))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for name, touched := range map[string][]uint32{"ascending": touchedSlots(edge), "shuffled": shuffled} {
			got := append([]byte(nil), virgin...)
			gotBits, gotEntries := mergeTouched(got, edge, touched)
			if gotBits != wantBits || gotEntries != wantEntries {
				t.Errorf("%s: mergeTouched = (%d bits, %d entries), reference (%d, %d)",
					name, gotBits, gotEntries, wantBits, wantEntries)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: virgin map\n got %x\nwant %x", name, got, want)
			}
			if again, _ := mergeTouched(got, edge, touched); again != 0 {
				t.Errorf("%s: re-merging the same map set %d bits", name, again)
			}
			cov, sig := bucketize(edge, append([]uint32(nil), touched...))
			if !slices.Equal(cov, wantCov) || sig != wantSig {
				t.Errorf("%s: bucketize = %v %016x, full scan %v %016x", name, cov, sig, wantCov, wantSig)
			}
		}
	})
}
