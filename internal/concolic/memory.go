package concolic

import (
	"encoding/binary"
	"fmt"
	"sync"

	"rvcte/internal/smt"
)

const (
	// pageBits sets the copy-on-write granularity: a write to a shared
	// page copies pageSize bytes. 1 KB pages keep a fork checkpoint's
	// cost close to what its path wrote, while the page table of a guest
	// image stays a few dozen entries (Clone copies it whole).
	pageBits = 10
	pageSize = 1 << pageBits
	pageMask = pageSize - 1

	lineBits  = 6
	lineSize  = 1 << lineBits // shadow entries per symLine
	lineMask  = lineSize - 1
	pageLines = pageSize / lineSize
)

// symLine is the symbolic shadow of lineSize consecutive bytes of a page.
type symLine [lineSize]*smt.Expr

// page holds pageSize bytes of concrete data plus a line-chunked
// symbolic shadow: lines[i] covers bytes [i*lineSize, (i+1)*lineSize)
// and stays nil until a symbolic byte is stored there. A shared page must
// be copied before any write (copy-on-write cloning, supporting the
// paper's "VP is cloned before executing each new input"); the copy
// duplicates the data and the line pointers but shares every line.
//
// Lines follow the same rule one level down: bit i of own says lines[i]
// was allocated by this page and is referenced by no other page, so it
// may be written in place. A line without its own bit may be shared with
// other pages and is never written — a store that changes one of its
// entries replaces it with a private copy first. A page's lines become
// shared only when the page itself is copied, and a copied page is shared
// (never written again), so its stale own bits are never consulted.
type page struct {
	// lines precedes data so the garbage collector scans only the
	// pointer prefix of a page, not its 1 KB of bytes.
	lines  [pageLines]*symLine
	own    uint64
	shared bool
	data   [pageSize]byte
}

// setSym stores the symbolic part of the byte at off. Storing nil where
// the shadow is already nil (or re-storing the same expression) leaves
// the page untouched: no line is allocated or copied.
func (p *page) setSym(off uint32, sym *smt.Expr) {
	li := off >> lineBits
	ln := p.lines[li]
	switch {
	case ln == nil:
		if sym == nil {
			return
		}
		ln = new(symLine)
		p.lines[li] = ln
		p.own |= 1 << li
	case ln[off&lineMask] == sym:
		return
	case p.own&(1<<li) == 0:
		cp := *ln
		ln = &cp
		p.lines[li] = ln
		p.own |= 1 << li
	}
	ln[off&lineMask] = sym
}

// Memory is a sparse concolic byte store covering the 32-bit address
// space. The zero value is not usable; create with NewMemory.
//
// Two one-entry TLBs cache the last page-table lookups: rPage (index
// rIdx) for reads and wPage (index wIdx) for writes, each nil when
// empty. wPage is always a private page (not shared), so a write through
// it needs no copy-on-write check; rPage may be shared. Every page-table
// change refreshes them: a copy-on-write replacement installs the new
// page in both, and Freeze and Clone drop wPage because they turn every
// private page into a shared one (after Clone rPage stays valid: the
// receiver's table still maps the same page). A frozen memory has both
// entries empty and never fills them, so concurrent readers of a
// snapshot write nothing.
type Memory struct {
	pages  map[uint32]*page
	ops    Ops
	frozen bool // pages are already marked shared; Clone must not mutate them

	rIdx, wIdx   uint32
	rPage, wPage *page

	// OnWrite, when non-nil, is invoked once per mutating call with the
	// written range before the caller observes the new bytes. The ISS uses
	// it to invalidate predecoded basic blocks covering the range
	// (self-modifying code, image reloads). Clone deliberately does not
	// carry the hook over: each owner installs its own.
	OnWrite func(addr uint32, n int)
}

// NewMemory creates an empty memory whose symbolic bytes are built with b.
func NewMemory(b *smt.Builder) *Memory {
	return &Memory{pages: make(map[uint32]*page), ops: Ops{B: b}}
}

// Freeze marks every current page shared, turning this memory into an
// immutable snapshot that may be Cloned concurrently: Clone then only
// reads the page table instead of flipping shared flags (which would be
// a data race between two workers cloning at the same time). The frozen
// memory must not be written afterwards while clones are outstanding.
func (m *Memory) Freeze() {
	for _, p := range m.pages {
		p.shared = true
	}
	m.frozen = true
	m.rPage, m.wPage = nil, nil
}

// Clone returns a copy-on-write snapshot. Both the original and the clone
// remain usable; pages are duplicated only when either side writes. A
// frozen memory may be cloned from multiple goroutines concurrently; an
// unfrozen one retains the original single-threaded contract (cloning
// marks its pages shared in place).
//
// Live (unfrozen) cloning is what state forking builds on: the clone may
// later be handed to another goroutine (a forked path resumed by a
// different worker) as long as the handoff itself synchronizes. The
// invariant that makes this safe is that a page's shared flag only ever
// transitions false→true, and only the page's exclusive owner performs
// the write — an already-shared page is never written again (not even to
// re-set the flag), so concurrent cloners of downstream forks only read.
// The same holds for the write TLB: it is dropped only when set, so
// cloning a memory whose pages are all shared writes nothing.
func (m *Memory) Clone() *Memory {
	c := &Memory{pages: make(map[uint32]*page, len(m.pages)), ops: m.ops}
	for k, p := range m.pages {
		if !m.frozen && !p.shared {
			p.shared = true
		}
		c.pages[k] = p
	}
	if m.wPage != nil {
		m.wPage = nil
	}
	return c
}

// pagePool holds private pages of released memories (Release) for reuse
// by later page allocations and copy-on-write copies, which overwrite
// every field.
var pagePool sync.Pool

func getPage() *page {
	if p, _ := pagePool.Get().(*page); p != nil {
		return p
	}
	return new(page)
}

// Release empties the memory and recycles its private pages for later
// copies-on-write: the per-execution clone of a fuzzing campaign
// releases its memory once the run is merged, so the next execution's
// copies need no fresh allocation. Shared pages stay untouched (clones
// or the snapshot still map them). The caller must be the memory's only
// user and must not use it afterwards.
func (m *Memory) Release() {
	for _, p := range m.pages {
		if !p.shared {
			pagePool.Put(p)
		}
	}
	m.pages = nil
	m.rPage, m.wPage = nil, nil
}

// readPage returns the page holding addr for reading, or nil when the
// page was never written.
func (m *Memory) readPage(addr uint32) *page {
	idx := addr >> pageBits
	if m.rPage != nil && m.rIdx == idx {
		return m.rPage
	}
	p := m.pages[idx]
	if p != nil && !m.frozen {
		m.rIdx, m.rPage = idx, p
	}
	return p
}

// writePage returns the private page holding addr, allocating it or
// copying a shared one first.
func (m *Memory) writePage(addr uint32) *page {
	idx := addr >> pageBits
	if m.wPage != nil && m.wIdx == idx {
		return m.wPage
	}
	p := m.pages[idx]
	switch {
	case p == nil:
		p = getPage()
		*p = page{}
		m.pages[idx] = p
	case p.shared:
		np := getPage()
		np.lines, np.own, np.shared = p.lines, 0, false
		np.data = p.data
		p = np
		m.pages[idx] = p
	}
	if !m.frozen {
		m.rIdx, m.rPage = idx, p
		m.wIdx, m.wPage = idx, p
	}
	return p
}

// StoreByte writes a concolic byte. A nil symbolic part clears any prior
// symbolic byte at the address.
func (m *Memory) StoreByte(addr uint32, c byte, sym *smt.Expr) {
	if m.OnWrite != nil {
		m.OnWrite(addr, 1)
	}
	m.storeByte(addr, c, sym)
}

// storeByte is StoreByte without the OnWrite notification; multi-byte
// entry points call it per byte after notifying once for the full range.
func (m *Memory) storeByte(addr uint32, c byte, sym *smt.Expr) {
	if sym != nil && sym.Width != 8 {
		panic(fmt.Sprintf("concolic: StoreByte symbolic width %d", sym.Width))
	}
	p := m.writePage(addr)
	off := addr & pageMask
	p.data[off] = c
	p.setSym(off, sym)
}

// LoadByteRaw reads one concolic byte.
func (m *Memory) LoadByteRaw(addr uint32) (byte, *smt.Expr) {
	p := m.readPage(addr)
	if p == nil {
		return 0, nil
	}
	off := addr & pageMask
	if ln := p.lines[off>>lineBits]; ln != nil {
		return p.data[off], ln[off&lineMask]
	}
	return p.data[off], nil
}

// Store writes an n-byte little-endian concolic value (n in {1,2,4}). The
// symbolic part of v, when present, is split into byte expressions.
func (m *Memory) Store(addr uint32, n int, v Value) {
	if m.OnWrite != nil {
		m.OnWrite(addr, n)
	}
	off := addr & pageMask
	if off+uint32(n) > pageSize {
		for i := 0; i < n; i++ {
			m.storeByte(addr+uint32(i), byte(v.C>>(8*i)), m.symByte(v, i))
		}
		return
	}
	p := m.writePage(addr)
	if v.Sym == nil && p.lines[off>>lineBits] == nil && p.lines[(off+uint32(n)-1)>>lineBits] == nil {
		switch n {
		case 4:
			binary.LittleEndian.PutUint32(p.data[off:], v.C)
			return
		case 2:
			binary.LittleEndian.PutUint16(p.data[off:], uint16(v.C))
			return
		case 1:
			p.data[off] = byte(v.C)
			return
		}
	}
	for i := uint32(0); i < uint32(n); i++ {
		p.data[off+i] = byte(v.C >> (8 * i))
		p.setSym(off+i, m.symByte(v, int(i)))
	}
}

// symByte is byte i of v's symbolic part, or nil when v is concrete or
// that byte folds to a constant.
func (m *Memory) symByte(v Value, i int) *smt.Expr {
	if v.Sym == nil {
		return nil
	}
	e := m.ops.B.Extract(v.Sym, uint8(i*8+7), uint8(i*8))
	if e.IsConst() {
		return nil
	}
	return e
}

// Load reads an n-byte little-endian concolic value (n in {1,2,4}). When
// every byte is concrete the result is concrete; otherwise the byte
// expressions are concatenated (and the builder re-fuses contiguous
// extracts, so a round trip returns the original expression).
func (m *Memory) Load(addr uint32, n int) Value {
	if off := addr & pageMask; off+uint32(n) <= pageSize {
		p := m.readPage(addr)
		if p == nil {
			return Value{}
		}
		if p.lines[off>>lineBits] == nil && p.lines[(off+uint32(n)-1)>>lineBits] == nil {
			switch n {
			case 4:
				return Value{C: binary.LittleEndian.Uint32(p.data[off:])}
			case 2:
				return Value{C: uint32(binary.LittleEndian.Uint16(p.data[off:]))}
			case 1:
				return Value{C: uint32(p.data[off])}
			}
		}
	}
	var c uint32
	anySym := false
	var bytes [4]*smt.Expr
	var concs [4]byte
	for i := 0; i < n; i++ {
		cb, sb := m.LoadByteRaw(addr + uint32(i))
		concs[i] = cb
		bytes[i] = sb
		c |= uint32(cb) << (8 * i)
		if sb != nil {
			anySym = true
		}
	}
	if !anySym {
		return Value{C: c}
	}
	b := m.ops.B
	// Build MSB-first concat, materializing concrete bytes as constants.
	var e *smt.Expr
	for i := n - 1; i >= 0; i-- {
		be := bytes[i]
		if be == nil {
			be = b.Const(8, uint64(concs[i]))
		}
		if e == nil {
			e = be
		} else {
			e = b.Concat(e, be)
		}
	}
	// The builder constant-folds the concat (and re-fuses contiguous
	// extracts of a constant), so the result may be concrete even though
	// individual bytes carried expressions — collapse it at every width,
	// or constant-folded narrow loads stay symbolic and inflate the EPC
	// and trace conditions downstream.
	if e.IsConst() {
		return Value{C: uint32(e.Val)}
	}
	if n < 4 {
		// Loads narrower than a word return the raw width; the ISS
		// applies sign/zero extension via Ops.
		return Value{C: c, Sym: b.ZExt(e, 32)}
	}
	return Value{C: c, Sym: e}
}

// WriteBytes copies concrete bytes into memory (used by the loader).
func (m *Memory) WriteBytes(addr uint32, data []byte) {
	if m.OnWrite != nil && len(data) > 0 {
		m.OnWrite(addr, len(data))
	}
	for i, by := range data {
		m.storeByte(addr+uint32(i), by, nil)
	}
}

// ReadBytes copies n concrete bytes out of memory (symbolic parts are
// ignored; used for diagnostics and for reading guest strings).
func (m *Memory) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i], _ = m.LoadByteRaw(addr + uint32(i))
	}
	return out
}

// CStringMax bounds ReadCString: a string without a NUL terminator
// within this many bytes is reported as truncated instead of silently
// cut short.
const CStringMax = 4096

// ReadCString reads a NUL-terminated guest string. The scan is bounded
// at CStringMax bytes; when no terminator is found within the bound,
// the truncated prefix is returned with ok == false (callers should
// treat that as a malformed string — typically a wild pointer — rather
// than a valid name).
func (m *Memory) ReadCString(addr uint32) (s string, ok bool) {
	var out []byte
	for i := 0; i < CStringMax; i++ {
		b, _ := m.LoadByteRaw(addr + uint32(i))
		if b == 0 {
			return string(out), true
		}
		out = append(out, b)
	}
	return string(out), false
}

// MakeSymbolic overwrites len(conc) bytes starting at addr with fresh
// symbolic bytes named name[0..len(conc)), whose concrete parts are set
// from conc. The range must not wrap the 32-bit address space and the
// name must be non-empty (variable names are the replay identity of the
// bytes); violations panic with a diagnostic rather than silently
// minting unusable variables. Returns the created byte expressions.
func (m *Memory) MakeSymbolic(addr uint32, conc []byte, name string) []*smt.Expr {
	if name == "" {
		panic("concolic: MakeSymbolic with empty name")
	}
	if uint64(addr)+uint64(len(conc)) > 1<<32 {
		panic(fmt.Sprintf("concolic: MakeSymbolic range [%#x, %#x+%d) wraps the address space",
			addr, addr, len(conc)))
	}
	if m.OnWrite != nil && len(conc) > 0 {
		m.OnWrite(addr, len(conc))
	}
	out := make([]*smt.Expr, len(conc))
	for i := range conc {
		v := m.ops.B.Var(8, fmt.Sprintf("%s[%d]", name, i))
		out[i] = v
		m.storeByte(addr+uint32(i), conc[i], v)
	}
	return out
}

// Reconcretize rewrites the concrete part of every symbolic byte to its
// value under ev, leaving the symbolic expressions untouched. This is
// the memory half of substituting a new solver model into a forked VP:
// the symbolic shadow (which encodes how each byte derives from the
// inputs) stays valid across models, but the concrete mirror was
// computed under the old input and must be re-evaluated. Copy-on-write
// is preserved — a shared page is copied only when one of its bytes
// actually changes — and OnWrite fires per changed byte so block-cache
// invalidation sees the mutation.
func (m *Memory) Reconcretize(ev *smt.Evaluator) {
	for idx, p := range m.pages {
		base := idx << pageBits
		for li := range p.lines {
			ln := p.lines[li]
			if ln == nil {
				continue
			}
			for j, s := range ln {
				if s == nil {
					continue
				}
				off := uint32(li<<lineBits | j)
				nb := byte(ev.Eval(s))
				if nb == p.data[off] {
					continue
				}
				if m.OnWrite != nil {
					m.OnWrite(base|off, 1)
				}
				// COW on first actual change; later changes of the same
				// page hit the now-private copy. The copy shares ln, which
				// is only read here.
				p = m.writePage(base | off)
				p.data[off] = nb
			}
		}
	}
}
