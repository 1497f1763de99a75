package fuzz

import (
	"testing"

	"rvcte/internal/iss"
)

// TestStateBankedMapSizing: Options.States splits the virgin map into
// next-pow2 protocol-state banks, each of 2^mapBits slots.
func TestStateBankedMapSizing(t *testing.T) {
	for _, tc := range []struct{ states, banks int }{
		{0, 1}, {1, 1}, {3, 4}, {4, 4},
	} {
		f := New(gateSnapshot(t), Options{Seed: 1, States: tc.states})
		if want := tc.banks << mapBits; len(f.virgin) != want {
			t.Errorf("States=%d: virgin map %d bytes want %d", tc.states, len(f.virgin), want)
		}
	}
}

// TestEdgeCoveredAcrossBanks: EdgeCovered answers "covered in ANY
// protocol-state bank" — the campaign dedup question. An edge recorded
// only in a non-zero bank must still count as covered, and bank
// boundaries must not alias distinct edges.
func TestEdgeCoveredAcrossBanks(t *testing.T) {
	f := New(gateSnapshot(t), Options{Seed: 1, States: 4})
	bankLen := len(f.virgin) / iss.EdgeBanks(4)
	from, to := uint32(0x80000004), uint32(0x80000010)
	idx := int(iss.EdgeIndex(from, to, bankLen))
	if f.EdgeCovered(from, to) {
		t.Fatal("fresh map must report uncovered")
	}
	// Record the edge in bank 2 only (a non-LISTEN protocol state).
	f.virgin[2*bankLen+idx] = 1
	if !f.EdgeCovered(from, to) {
		t.Fatal("edge covered in bank 2 not seen by EdgeCovered")
	}
	for b := 0; b < 4; b++ {
		if b != 2 && f.virgin[b*bankLen+idx] != 0 {
			t.Fatalf("bank %d dirtied by bank-2 write", b)
		}
	}
}

// TestBankedFuzzStillFindsGatedBug: state banking is transparent when
// the guest never writes a protocol-state byte — the gated-bug story of
// TestFuzzerFindsGatedBug must replay identically on a 4-bank map.
func TestBankedFuzzStillFindsGatedBug(t *testing.T) {
	f := New(gateSnapshot(t), Options{Seed: 1, Workers: 1, States: 4})
	f.RunBatch(4000)
	if fs := f.Findings(); len(fs) != 1 {
		t.Fatalf("findings %d want exactly 1", len(fs))
	}
	if st := f.Stats(); st.CorpusSize < 3 {
		t.Errorf("corpus %d want >=3", st.CorpusSize)
	}
}
