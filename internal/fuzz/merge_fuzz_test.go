package fuzz

import (
	"bytes"
	"testing"
)

// mergeMapLen is the edge and virgin map size FuzzCoverageMerge works on:
// small enough that random inputs fill every count class and every
// virgin state, a multiple of the merge's eight-byte word.
const mergeMapLen = 64

// FuzzCoverageMerge checks the word-wise mergeCoverage against the
// byte-wise reference (bucketize, then virginMerge) on arbitrary edge
// and virgin maps: both must count the same new bits and the same
// zero-to-nonzero virgin entries, and leave the same virgin map. The
// input's first mergeMapLen bytes are the raw edge counts, the next
// mergeMapLen the virgin map (zero-padded when short). The seed corpus
// in testdata/fuzz/FuzzCoverageMerge holds an empty input, a map whose
// counts hit every class boundary against an empty virgin map, and maps
// against partly and fully saturated virgin maps.
func FuzzCoverageMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := make([]byte, 2*mergeMapLen)
		copy(in, data)
		edge, virgin := in[:mergeMapLen], in[mergeMapLen:]

		want := append([]byte(nil), virgin...)
		cov, _ := bucketize(edge)
		wantEntries := 0
		for _, eb := range cov {
			if want[eb.Idx] == 0 {
				wantEntries++
			}
		}
		wantBits := virginMerge(want, cov)

		got := append([]byte(nil), virgin...)
		gotBits, gotEntries := mergeCoverage(got, edge)
		if gotBits != wantBits || gotEntries != wantEntries {
			t.Errorf("mergeCoverage = (%d bits, %d entries), reference (%d, %d)",
				gotBits, gotEntries, wantBits, wantEntries)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("virgin map\n got %x\nwant %x", got, want)
		}
		if again, _ := mergeCoverage(got, edge); again != 0 {
			t.Errorf("re-merging the same map set %d bits", again)
		}
	})
}
