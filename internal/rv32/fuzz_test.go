package rv32

import "testing"

// semantic clears the encoding-only fields of an instruction, leaving
// what the executors act on.
func semantic(in Inst) Inst {
	in.Raw, in.Size = 0, 0
	return in
}

// checkRoundTrip checks the decoder against the encoders on one word:
// Decode sizes it by the low two bits; a legal word re-encodes with
// Encode and decodes back to the same instruction; and the compressed
// form Compress picks for it, if any, decodes back to it too. Reserved
// encodings (such as the RV32C shifts with shamt[5] set) must decode as
// illegal, or Encode rejects them.
func checkRoundTrip(t *testing.T, w uint32) {
	t.Helper()
	in := Decode(w)
	if want := uint8(2 + 2*(w&3/3)); in.Size != want {
		t.Fatalf("Decode(%#x).Size = %d, want %d", w, in.Size, want)
	}
	if in.Op == OpIllegal {
		return
	}
	enc, err := Encode(in)
	if err != nil {
		t.Fatalf("Decode(%#x) = %v does not re-encode: %v", w, in, err)
	}
	if back := Decode(enc); semantic(back) != semantic(in) {
		t.Fatalf("Decode(%#x) = %+v, but its encoding %#x decodes to %+v", w, in, enc, back)
	}
	if h, ok := Compress(in); ok {
		if back := Decode(uint32(h)); semantic(back) != semantic(in) || back.Size != 2 {
			t.Fatalf("Compress(%+v) = %#x decodes to %+v", in, h, back)
		}
	}
}

// TestCompressedRoundTripExhaustive runs the round-trip check on every
// 16-bit encoding.
func TestCompressedRoundTripExhaustive(t *testing.T) {
	for w := uint32(0); w < 1<<16; w++ {
		if w&3 != 3 {
			checkRoundTrip(t, w)
		}
	}
}

// FuzzDecodeRoundTrip runs the round-trip check on arbitrary words (a
// panic in Decode fails it too). The seed corpus is under
// testdata/fuzz/FuzzDecodeRoundTrip.
func FuzzDecodeRoundTrip(f *testing.F) {
	f.Fuzz(checkRoundTrip)
}
