package fuzz

import (
	"encoding/binary"
	"math/rand"
)

// AFL's "interesting" constants: boundary values that flip comparison
// outcomes far more often than uniform random bytes.
var (
	interesting8  = []uint8{0x80, 0xff, 0, 1, 16, 32, 64, 100, 127}
	interesting16 = []uint16{0x8000, 0xff7f, 128, 255, 256, 512, 1000, 1024, 4096, 32767, 0xffff}
	interesting32 = []uint32{0x80000000, 0xfa0000fa, 32768, 65535, 65536, 100663045, 0x7fffffff}
)

// detStages describes the deterministic mutation schedule applied to the
// first detLen bytes of a fresh corpus entry: walking bit flips, byte
// sets to interesting values, and byte-level arithmetic — the classic
// afl deterministic stages, bounded so one entry cannot monopolize the
// fuzzer (detBytes).
const (
	detArithMax = 16 // +/- 1..detArithMax
)

// detCount returns the number of deterministic mutations for a prefix of
// l bytes.
func detCount(l int) int {
	if l <= 0 {
		return 0
	}
	// bit flips + interesting8 + arith(+/-) + 16-bit interesting (LE).
	n := 8*l + len(interesting8)*l + 2*detArithMax*l
	if l >= 2 {
		n += len(interesting16) * (l - 1)
	}
	return n
}

// detMutate returns the pos'th deterministic mutation of data (the first
// detLen bytes only). pos must be < detCount(min(len(data), detLen)).
func detMutate(data []byte, pos, detLen int) []byte {
	l := len(data)
	if l > detLen {
		l = detLen
	}
	out := append([]byte(nil), data...)
	// Stage 1: walking single-bit flips.
	if pos < 8*l {
		out[pos/8] ^= 1 << (pos % 8)
		return out
	}
	pos -= 8 * l
	// Stage 2: interesting byte values.
	if pos < len(interesting8)*l {
		out[pos/len(interesting8)] = interesting8[pos%len(interesting8)]
		return out
	}
	pos -= len(interesting8) * l
	// Stage 3: byte arithmetic +/- 1..detArithMax.
	if pos < 2*detArithMax*l {
		i := pos / (2 * detArithMax)
		d := pos % (2 * detArithMax)
		if d < detArithMax {
			out[i] += byte(d + 1)
		} else {
			out[i] -= byte(d - detArithMax + 1)
		}
		return out
	}
	pos -= 2 * detArithMax * l
	// Stage 4: interesting 16-bit values, little-endian.
	i := pos / len(interesting16)
	binary.LittleEndian.PutUint16(out[i:], interesting16[pos%len(interesting16)])
	return out
}

// havoc applies 1..64 random stacked mutations (bit flips, interesting
// values, arithmetic, block overwrite/insert/delete) and returns a new
// slice, never longer than maxLen.
func havoc(rng *rand.Rand, data []byte, maxLen int) []byte {
	out := append([]byte(nil), data...)
	n := 1 << (1 + rng.Intn(6)) // 2..64 stacked ops
	for i := 0; i < n; i++ {
		if len(out) == 0 {
			// Degenerate input: grow it so positional ops have a target.
			out = append(out, byte(rng.Intn(256)))
			continue
		}
		switch rng.Intn(12) {
		case 0: // flip one bit
			p := rng.Intn(len(out) * 8)
			out[p/8] ^= 1 << (p % 8)
		case 1: // interesting byte
			out[rng.Intn(len(out))] = interesting8[rng.Intn(len(interesting8))]
		case 2: // interesting 16-bit
			if len(out) >= 2 {
				p := rng.Intn(len(out) - 1)
				binary.LittleEndian.PutUint16(out[p:], interesting16[rng.Intn(len(interesting16))])
			}
		case 3: // interesting 32-bit
			if len(out) >= 4 {
				p := rng.Intn(len(out) - 3)
				binary.LittleEndian.PutUint32(out[p:], interesting32[rng.Intn(len(interesting32))])
			}
		case 4: // byte arithmetic
			out[rng.Intn(len(out))] += byte(1 + rng.Intn(detArithMax))
		case 5:
			out[rng.Intn(len(out))] -= byte(1 + rng.Intn(detArithMax))
		case 6: // random byte
			out[rng.Intn(len(out))] = byte(rng.Intn(256))
		case 7: // 16-bit arithmetic
			if len(out) >= 2 {
				p := rng.Intn(len(out) - 1)
				v := binary.LittleEndian.Uint16(out[p:])
				v += uint16(1 + rng.Intn(detArithMax))
				binary.LittleEndian.PutUint16(out[p:], v)
			}
		case 8: // delete a block
			if len(out) > 1 {
				from := rng.Intn(len(out))
				l := 1 + rng.Intn(len(out)-from)
				out = append(out[:from], out[from+l:]...)
			}
		case 9: // duplicate a block
			if len(out) < maxLen {
				from := rng.Intn(len(out))
				l := 1 + rng.Intn(len(out)-from)
				if len(out)+l > maxLen {
					l = maxLen - len(out)
				}
				if l > 0 {
					at := rng.Intn(len(out) + 1)
					blk := append([]byte(nil), out[from:from+l]...)
					out = append(out[:at], append(blk, out[at:]...)...)
				}
			}
		case 10: // overwrite a block with a copy from elsewhere
			if len(out) >= 2 {
				from, to := rng.Intn(len(out)), rng.Intn(len(out))
				l := 1 + rng.Intn(len(out)-max(from, to))
				copy(out[to:to+l], out[from:from+l])
			}
		case 11: // set a block to one value
			from := rng.Intn(len(out))
			l := 1 + rng.Intn(len(out)-from)
			v := byte(rng.Intn(256))
			for j := from; j < from+l; j++ {
				out[j] = v
			}
		}
	}
	if len(out) > maxLen {
		out = out[:maxLen]
	}
	return out
}

// splice joins a random prefix of a with a random suffix of b (afl's
// splice stage), then havocs the result.
func splice(rng *rand.Rand, a, b []byte, maxLen int) []byte {
	if len(a) == 0 || len(b) == 0 {
		return havoc(rng, a, maxLen)
	}
	cutA := rng.Intn(len(a))
	cutB := rng.Intn(len(b))
	out := make([]byte, 0, cutA+len(b)-cutB)
	out = append(out, a[:cutA]...)
	out = append(out, b[cutB:]...)
	if len(out) > maxLen {
		out = out[:maxLen]
	}
	return havoc(rng, out, maxLen)
}
