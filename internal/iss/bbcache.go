package iss

import (
	"fmt"
	"sync/atomic"

	"rvcte/internal/rv32"
)

// This file implements the predecoded basic-block cache (DESIGN.md
// "ISS"): on the first execution of a block the ISS decodes straight-line
// instructions once into a slice of pre-resolved operation records
// (decoded) that dispatch through per-opcode handler functions
// (dispatch.go), instead of re-fetching, re-decoding and re-switching on
// every step of every path. Blocks terminate at control transfers and
// system instructions, are indexed by physical PC, and are invalidated
// when guest memory they cover is written (self-modifying code,
// LoadImage) via the concolic.Memory OnWrite hook.
//
// Clone safety follows the memory snapshot protocol. Core.Freeze
// promotes the core's decoded blocks into a shared blockTable, which
// clones keep filling lazily and concurrently, so the first path to
// execute a block decodes it for every later path of the campaign.
// Publishing is sound because of the copy-on-write invariant: a page the
// clone has not written is bit-identical to the frozen image, so a block
// decoded from clean pages is the block every sibling clone would
// decode. Each core tracks the 64-byte memory lines it has written since
// cloning (a dirtySet) and refuses to use or publish shared blocks
// overlapping them — a clone that rewrites code (rare) falls back to its
// precise private layer.

const (
	// maxBlockOps caps block length so pathological straight-line code
	// cannot produce unbounded decode work on a miss.
	maxBlockOps = 64

	// bbPageBits sets the granularity of write tracking (64-byte lines).
	// Finer than the 1 KB memory pages so that data sitting on the same
	// page as code (common in small linked images) does not shadow the
	// page's shared blocks on every data write.
	bbPageBits = 6

	// codePageBits sets the leaf size of the shared block table: one
	// leaf per 4 KB of RAM, one slot per halfword-aligned start PC.
	codePageBits = 12
	codePageMask = 1<<codePageBits - 1

	// dirtyLeafBits sets the leaf size of a dirtySet: 2^12 lines (256 KB
	// of RAM) per leaf, held in one uint64 of line bits per 4 KB of RAM.
	dirtyLeafBits  = 12
	dirtyLeafWords = 1 << (dirtyLeafBits - 6)
)

// bblock is one immutable decoded basic block covering code bytes
// [start, end).
type bblock struct {
	start, end uint32
	ops        []decoded
	dead       bool // invalidated; still present in stale page lists
}

// blockTable is the translation cache shared by every clone of a frozen
// snapshot: a two-level table over RAM whose top level, one entry per
// 4 KB code page, is allocated at Freeze, and whose leaves, one slot per
// halfword-aligned start PC, are allocated by the first block published
// into their page. A lookup is two indexes and one atomic load. Clones
// publish concurrently; a slot is written once (first publisher wins)
// and a leaf pointer likewise.
type blockTable struct {
	base   uint32 // RAM base: slot addresses are offsets from it
	leaves []atomic.Pointer[blockLeaf]
}

type blockLeaf [1 << (codePageBits - 1)]atomic.Pointer[bblock]

func newBlockTable(ramBase, ramSize uint32) *blockTable {
	n := (uint64(ramSize) + codePageMask) >> codePageBits
	return &blockTable{base: ramBase, leaves: make([]atomic.Pointer[blockLeaf], n)}
}

// slot returns the slot of the block starting at pc, allocating its leaf
// when alloc is set. It returns nil when pc is odd or outside RAM (no
// block can start there) or when the leaf is absent and alloc is unset.
func (t *blockTable) slot(pc uint32, alloc bool) *atomic.Pointer[bblock] {
	off := pc - t.base
	pg := uint64(off >> codePageBits)
	if pc&1 != 0 || pg >= uint64(len(t.leaves)) {
		return nil
	}
	l := t.leaves[pg].Load()
	if l == nil {
		if !alloc {
			return nil
		}
		if nl := new(blockLeaf); t.leaves[pg].CompareAndSwap(nil, nl) {
			l = nl
		} else {
			l = t.leaves[pg].Load()
		}
	}
	return &l[(off&codePageMask)>>1]
}

// load returns the block published at pc, or nil.
func (t *blockTable) load(pc uint32) *bblock {
	if s := t.slot(pc, false); s != nil {
		return s.Load()
	}
	return nil
}

// publish installs b unless another block was published at its start PC
// first, and returns the block the table holds; nil when b cannot be
// placed in the table.
func (t *blockTable) publish(b *bblock) *bblock {
	s := t.slot(b.start, true)
	if s == nil {
		return nil
	}
	if s.CompareAndSwap(nil, b) {
		return b
	}
	return s.Load()
}

// each calls fn for every published block.
func (t *blockTable) each(fn func(*bblock)) {
	for i := range t.leaves {
		if l := t.leaves[i].Load(); l != nil {
			for j := range l {
				if b := l[j].Load(); b != nil {
					fn(b)
				}
			}
		}
	}
}

// dirtySet is the set of 64-byte RAM lines a core has written since it
// was cloned, sized by what was written: a top level with one entry per
// 2^dirtyLeafBits lines, and a leaf of line bits allocated on the first
// write into its range. The zero value is the empty set.
//
// Leaves are copy-on-write, like the shadow lines of a memory page: bit
// i of own says leaves[i] was allocated by this set and is referenced by
// no other, so it may be written in place. A clone shares every leaf and
// clears the source's own bits (cloneFor), so neither side writes a
// shared leaf again: add copies it first, and only when the bit it sets
// is not already set. own is nil until the first leaf is allocated or
// copied.
type dirtySet struct {
	leaves []*dirtyLeaf
	own    []uint64
}

type dirtyLeaf [dirtyLeafWords]uint64

func (d *dirtySet) has(line uint32) bool {
	l := d.leaves[line>>dirtyLeafBits]
	return l != nil && l[line>>6%dirtyLeafWords]&(1<<(line&63)) != 0
}

func (d *dirtySet) add(line uint32) {
	i := line >> dirtyLeafBits
	w, bit := line>>6%dirtyLeafWords, uint64(1)<<(line&63)
	l := d.leaves[i]
	switch {
	case l == nil:
		l = new(dirtyLeaf)
	case l[w]&bit != 0:
		return
	case d.own != nil && d.own[i>>6]&(1<<(i&63)) != 0:
		l[w] |= bit
		return
	default:
		cp := *l
		l = &cp
	}
	if d.own == nil {
		d.own = make([]uint64, (len(d.leaves)+63)/64)
	}
	d.leaves[i] = l
	d.own[i>>6] |= 1 << (i & 63)
	l[w] |= bit
}

// bbCache is the per-core cache state: a private mutable layer for
// blocks that may not be shared (decoded from pages this core wrote),
// plus a pointer to the shared layer of the snapshot the core was
// cloned from (nil for a root core).
type bbCache struct {
	blocks map[uint32]*bblock   // private layer, keyed by block start PC
	pages  map[uint32][]*bblock // page index over private blocks
	lo, hi uint32               // extent of private code ([lo,hi); lo>hi when empty)

	shared *blockTable
	// dirty holds the 64-byte RAM lines this core has written since it
	// was cloned (or frozen); empty until the first tracked write. Shared
	// blocks touching a dirty line are ignored and re-decoded privately;
	// only blocks decoded entirely from clean lines are published to the
	// shared table. Tracked only while shared != nil — a root core's
	// private layer is kept consistent by precise invalidation instead.
	dirty dirtySet
	// dirtyLo and dirtyHi bound the lines in dirty, so cleanRange answers
	// for code outside the written extent with two compares.
	dirtyLo, dirtyHi uint32
	ramBase, ramSize uint32

	hits, misses, invals uint64

	// one is the block decodeOne refills for every one-record step,
	// allocated on first use; it is live only for the runBlock call it
	// feeds.
	one *bblock
}

func newBBCache(ramBase, ramSize uint32) *bbCache {
	return &bbCache{
		blocks:  make(map[uint32]*bblock),
		pages:   make(map[uint32][]*bblock),
		lo:      ^uint32(0),
		ramBase: ramBase,
		ramSize: ramSize,
	}
}

// cleanRange reports whether no line of [start, end) has been written
// by this core since it was cloned. Callers guarantee the range lies in
// RAM (blocks are only decoded from RAM).
func (bc *bbCache) cleanRange(start, end uint32) bool {
	if bc.dirty.leaves == nil {
		return true
	}
	first, last := (start-bc.ramBase)>>bbPageBits, (end-1-bc.ramBase)>>bbPageBits
	if last < bc.dirtyLo || first > bc.dirtyHi {
		return true
	}
	for l := first; l <= last; l++ {
		if bc.dirty.has(l) {
			return false
		}
	}
	return true
}

// markDirty sets the dirty bits for the written range [lo, hi),
// clamped to RAM (blocks cannot cover anything outside RAM, so writes
// elsewhere are irrelevant to the cache).
func (bc *bbCache) markDirty(lo, hi uint32) {
	ramEnd := uint64(bc.ramBase) + uint64(bc.ramSize)
	if uint64(hi) <= uint64(bc.ramBase) || uint64(lo) >= ramEnd {
		return
	}
	if lo < bc.ramBase {
		lo = bc.ramBase
	}
	if uint64(hi) > ramEnd {
		hi = uint32(ramEnd)
	}
	first, last := (lo-bc.ramBase)>>bbPageBits, (hi-1-bc.ramBase)>>bbPageBits
	if bc.dirty.leaves == nil {
		lines := (bc.ramSize >> bbPageBits) + 1
		bc.dirty.leaves = make([]*dirtyLeaf, (lines>>dirtyLeafBits)+1)
		bc.dirtyLo, bc.dirtyHi = first, last
	}
	bc.dirtyLo, bc.dirtyHi = min(bc.dirtyLo, first), max(bc.dirtyHi, last)
	for l := first; l <= last; l++ {
		bc.dirty.add(l)
	}
}

// lookup returns the decoded block starting at pc, decoding it on a
// miss and publishing the result to the shared table when possible. A
// nil return means the instruction at pc cannot be fetched (see
// fetchFault).
func (bc *bbCache) lookup(c *Core, pc uint32) *bblock {
	if len(bc.blocks) > 0 { // fuzz/path clones usually have no private blocks
		if b := bc.blocks[pc]; b != nil {
			bc.hits++
			return b
		}
	}
	publishable := false
	if t := bc.shared; t != nil {
		b := t.load(pc)
		if b != nil && bc.cleanRange(b.start, b.end) {
			bc.hits++
			return b
		}
		// Either unknown to the shared layer, or stale for this core
		// (its range overlaps pages we wrote): decode below.
		publishable = b == nil
	}
	bc.misses++
	nb := c.decodeBlock(pc)
	if nb == nil {
		return nil
	}
	if publishable && bc.cleanRange(nb.start, nb.end) {
		// Decoded entirely from clean pages: identical to what any
		// sibling clone would decode from the frozen image, so publish
		// it for the whole campaign. First publisher wins.
		if pb := bc.shared.publish(nb); pb != nil {
			return pb
		}
	}
	bc.insert(nb)
	return nb
}

func (bc *bbCache) insert(b *bblock) {
	bc.blocks[b.start] = b
	if b.start < bc.lo {
		bc.lo = b.start
	}
	if b.end > bc.hi {
		bc.hi = b.end
	}
	last := (b.end - 1) >> bbPageBits
	for pg := b.start >> bbPageBits; ; pg++ {
		bc.pages[pg] = append(bc.pages[pg], b)
		if pg >= last {
			break
		}
	}
}

// invalidate discards private blocks overlapping [lo, hi). Reports
// whether any block was removed.
func (bc *bbCache) invalidate(lo, hi uint32) bool {
	removed := false
	last := (hi - 1) >> bbPageBits
	for pg := lo >> bbPageBits; ; pg++ {
		if list := bc.pages[pg]; len(list) > 0 {
			kept := list[:0]
			for _, b := range list {
				if b.dead {
					continue // already removed via another page's list
				}
				if b.start < hi && b.end > lo {
					b.dead = true
					delete(bc.blocks, b.start)
					removed = true
					continue
				}
				kept = append(kept, b)
			}
			bc.pages[pg] = kept
		}
		if pg >= last {
			break
		}
	}
	return removed
}

// freeze promotes this core's view of the program into the shared layer
// served to clones: the previous shared blocks that are still valid for
// this core's memory (not overlapping pages it wrote), plus everything
// in its private layer. Afterwards the core's memory is the new
// baseline, so the dirty set resets.
func (bc *bbCache) freeze() {
	if bc.shared != nil && len(bc.blocks) == 0 && bc.dirty.leaves == nil {
		// Nothing private and nothing stale: the current shared table
		// already matches this core's memory and keeps growing as clones
		// publish into it. (When shared is nil we fall through even with
		// an empty private layer, so that clones always have a table to
		// publish into.)
		return
	}
	t := newBlockTable(bc.ramBase, bc.ramSize)
	put := func(b *bblock) {
		if s := t.slot(b.start, true); s != nil {
			s.Store(b)
		}
	}
	if old := bc.shared; old != nil {
		old.each(func(b *bblock) {
			if bc.cleanRange(b.start, b.end) {
				put(b)
			}
		})
	}
	for _, b := range bc.blocks {
		put(b)
	}
	bc.shared = t
	bc.blocks = make(map[uint32]*bblock)
	bc.pages = make(map[uint32][]*bblock)
	bc.lo, bc.hi = ^uint32(0), 0
	bc.dirty = dirtySet{}
}

// cloneFor returns the cache for a clone of the owning core: the shared
// table is carried over (safe for concurrent publishing), the private
// layer is rebuilt lazily, and the dirty set is inherited (the clone's
// memory contains the parent's writes). The clone copies only the
// dirty set's top level and shares its leaves; clearing the owner's own
// bits makes them read-only on both sides. A fork checkpoint never runs,
// so its own slice stays nil and concurrent cloners of one checkpoint
// write nothing.
func (bc *bbCache) cloneFor() *bbCache {
	n := newBBCache(bc.ramBase, bc.ramSize)
	n.shared = bc.shared
	if bc.dirty.leaves != nil {
		clear(bc.dirty.own)
		n.dirty.leaves = append([]*dirtyLeaf(nil), bc.dirty.leaves...)
		n.dirtyLo, n.dirtyHi = bc.dirtyLo, bc.dirtyHi
	}
	return n
}

// noteMemWrite is the concolic.Memory OnWrite hook: it invalidates
// private decoded blocks covering the written range and marks the
// written lines dirty so stale shared blocks are never consulted. The
// common case — data writes outside any privately decoded code — costs
// two extent compares plus one bit-set per written line.
func (c *Core) noteMemWrite(addr uint32, n int) {
	if n > 0 {
		// A write covering the protocol-state byte re-reads it at the
		// next instruction boundary (the hook fires before the bytes
		// land, so the new value is not visible yet).
		if c.ProtoStateAddr != 0 && addr <= c.ProtoStateAddr && c.ProtoStateAddr-addr < uint32(n) {
			c.protoDirty = true
		}
	}
	bc := c.bb
	if n <= 0 {
		return
	}
	end := addr + uint32(n)
	if end < addr {
		end = ^uint32(0) // clamp a wrapping range
	}
	if addr < bc.hi && end > bc.lo {
		if bc.invalidate(addr, end) {
			bc.invals++
			c.bbAbort = true
		}
	}
	if bc.shared != nil {
		bc.markDirty(addr, end)
	}
}

// BBStats returns the block-cache hit, miss and invalidation counts
// accumulated by this core.
func (c *Core) BBStats() (hits, misses, invals uint64) {
	return c.bb.hits, c.bb.misses, c.bb.invals
}

// blockEnds reports whether op terminates a basic block: control
// transfers (the successor is dynamic or conditional), system
// instructions that redirect or depend on machine state, and fences
// (conservative FENCE.I barrier for self-modifying code).
func blockEnds(op rv32.Op) bool {
	switch op {
	case rv32.OpJAL, rv32.OpJALR,
		rv32.OpBEQ, rv32.OpBNE, rv32.OpBLT, rv32.OpBGE, rv32.OpBLTU, rv32.OpBGEU,
		rv32.OpECALL, rv32.OpEBREAK, rv32.OpMRET, rv32.OpWFI, rv32.OpFENCE,
		rv32.OpCSRRW, rv32.OpCSRRS, rv32.OpCSRRC, rv32.OpCSRRWI, rv32.OpCSRRSI, rv32.OpCSRRCI:
		return true
	}
	return false
}

// fetchAt fetches and decodes the instruction at pc from the concrete
// bytes of guest memory, without side effects. When pc cannot be
// executed it returns the fault kind and message instead: a misaligned
// pc, or a 2- or 4-byte fetch leaving RAM, is ErrIllegalJump; an
// illegal encoding is ErrIllegalInstr.
func (c *Core) fetchAt(pc uint32) (rv32.Inst, ErrKind, string) {
	if pc&1 != 0 {
		return rv32.Inst{}, ErrIllegalJump, "misaligned pc"
	}
	if !c.inRAM(pc, 2) {
		return rv32.Inst{}, ErrIllegalJump, "pc outside memory"
	}
	b0, _ := c.Mem.LoadByteRaw(pc)
	b1, _ := c.Mem.LoadByteRaw(pc + 1)
	word := uint32(b0) | uint32(b1)<<8
	if word&3 == 3 {
		if !c.inRAM(pc, 4) {
			return rv32.Inst{}, ErrIllegalJump, "pc outside memory"
		}
		b2, _ := c.Mem.LoadByteRaw(pc + 2)
		b3, _ := c.Mem.LoadByteRaw(pc + 3)
		word |= uint32(b2)<<16 | uint32(b3)<<24
	}
	inst := rv32.Decode(word)
	if inst.Op == rv32.OpIllegal {
		return rv32.Inst{}, ErrIllegalInstr, fmt.Sprintf("encoding %#x", word)
	}
	return inst, ErrNone, ""
}

// decodeBlock decodes the basic block starting at pc. It stops before
// the first instruction that cannot be fetched, so a faulting PC always
// starts a block of its own, and returns nil when that is the first.
func (c *Core) decodeBlock(start uint32) *bblock {
	pc := start
	b := &bblock{start: start}
	for len(b.ops) < maxBlockOps {
		inst, kind, _ := c.fetchAt(pc)
		if kind != ErrNone {
			break
		}
		b.ops = append(b.ops, makeDecoded(pc, inst))
		pc += uint32(inst.Size)
		if blockEnds(inst.Op) {
			break
		}
	}
	if len(b.ops) == 0 {
		return nil
	}
	b.end = pc
	return b
}

// decodeOne decodes the instruction at pc into a one-record block that
// bypasses the block cache: the path of Step and of every core with an
// ExecHook (whose hook then sees the instruction before its handler
// runs). nil when pc cannot be fetched.
func (c *Core) decodeOne(pc uint32) *bblock {
	inst, kind, _ := c.fetchAt(pc)
	if kind != ErrNone {
		return nil
	}
	b := c.bb.one
	if b == nil {
		b = &bblock{ops: make([]decoded, 1)}
		c.bb.one = b
	}
	d := &b.ops[0]
	*d = makeDecoded(pc, inst)
	if c.ExecHook != nil {
		d.fn = stepHooked
	}
	b.start, b.end = pc, d.npc
	return b
}
