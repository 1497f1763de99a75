package iss

import "math/bits"

// PCSet is a set of instruction addresses: one bit per halfword (RISC-V
// instructions are 2-byte aligned with the C extension), stored densely
// over the range between the lowest and highest PC added. The bitset
// rebases when a PC below the range arrives, so any address works; the
// size is proportional to the span of the covered code (a 32 KB span
// takes 256 words), which keeps a per-path coverage set a few hundred
// pointer-free words that copy with one memmove. An odd PC is recorded
// as the halfword that contains it.
//
// The zero value is an empty set. Assigning a PCSet aliases its storage.
type PCSet struct {
	base  uint32   // halfword index of bit 0 of words[0], a multiple of 64
	words []uint64 // bit j of words[i]: halfword base + 64*i + j
}

// Add inserts pc.
func (s *PCSet) Add(pc uint32) {
	h := pc >> 1
	if i := (h - s.base) >> 6; h >= s.base && int(i) < len(s.words) {
		s.words[i] |= 1 << (h & 63)
		return
	}
	s.grow(h)
	s.words[(h-s.base)>>6] |= 1 << (h & 63)
}

// grow extends the word range to cover halfword h. Growth below the
// range at least doubles it (append does the same above), so a run of
// rebases stays amortized O(1).
func (s *PCSet) grow(h uint32) {
	w := h &^ 63
	switch {
	case h >= s.base && int((h-s.base)>>6) < len(s.words):
		return
	case len(s.words) == 0:
		s.base = w
		s.words = make([]uint64, 1, 8)
	case w < s.base:
		n := max(int((s.base-w)>>6), min(len(s.words), int(s.base>>6)))
		words := make([]uint64, n+len(s.words), n+cap(s.words))
		copy(words[n:], s.words)
		s.words = words
		s.base -= uint32(n) << 6
	default:
		need := int((w-s.base)>>6) + 1
		s.words = append(s.words, make([]uint64, need-len(s.words))...)
	}
}

// Len returns the number of halfwords in the set.
func (s *PCSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Each calls fn for every PC in the set, in ascending order.
func (s *PCSet) Each(fn func(pc uint32)) {
	for i, w := range s.words {
		for w != 0 {
			j := bits.TrailingZeros64(w)
			w &= w - 1
			fn((s.base + uint32(i)<<6 + uint32(j)) << 1)
		}
	}
}

// Union adds every PC of o to s and returns how many were new to s.
func (s *PCSet) Union(o *PCSet) int {
	if len(o.words) == 0 {
		return 0
	}
	s.grow(o.base)
	s.grow(o.base + uint32(len(o.words)-1)<<6)
	off := int((o.base - s.base) >> 6)
	added := 0
	for i, w := range o.words {
		cur := &s.words[off+i]
		added += bits.OnesCount64(w &^ *cur)
		*cur |= w
	}
	return added
}
