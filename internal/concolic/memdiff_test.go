package concolic

import (
	"fmt"
	"math/rand"
	"testing"

	"rvcte/internal/smt"
)

// refByte is one byte of the flat reference memory.
type refByte struct {
	c byte
	s *smt.Expr
}

// refMem is the flat reference model of Memory: address → concolic byte,
// absent = zero and concrete.
type refMem map[uint32]refByte

func (r refMem) clone() refMem {
	n := make(refMem, len(r))
	for k, v := range r {
		n[k] = v
	}
	return n
}

// TestMemoryDifferential drives Memory and the flat reference model with
// the same random operations — byte and word stores (symbolic, concrete,
// constant-expression, nil over nil), loads, MakeSymbolic, Reconcretize —
// across a growing family of clones that all keep being written, some of
// them frozen snapshots that are only cloned and read. Word accesses
// straddle line and page boundaries, and clones, freezes and
// Reconcretize also run right after accesses that warmed the memory's
// read and write TLBs on the very page they then affect. After every
// operation the touched bytes of every live memory must match its own
// reference, read both byte-wise and through the one-byte Load fast
// path; periodically every byte ever touched is compared and the
// line-ownership invariant is checked. Runs under -race via make race.
func TestMemoryDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { memoryDifferential(t, seed) })
	}
}

func memoryDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	b := smt.NewBuilder()

	type side struct {
		m      *Memory
		ref    refMem
		frozen bool
		writes int // OnWrite notifications
	}
	newSide := func(m *Memory, ref refMem) *side {
		s := &side{m: m, ref: ref}
		m.OnWrite = func(uint32, int) { s.writes++ }
		return s
	}
	sides := []*side{newSide(NewMemory(b), refMem{})}
	touched := map[uint32]bool{}

	// Addresses cluster in a few lines of three pages, plus the last
	// bytes of a page so word accesses cross page and line boundaries.
	addr := func() uint32 {
		pg := uint32(0x10000 + rng.Intn(3)*pageSize)
		if rng.Intn(8) == 0 {
			return pg + pageSize - 1 - uint32(rng.Intn(4))
		}
		return pg + uint32(rng.Intn(4))*lineSize*5 + uint32(rng.Intn(lineSize))
	}
	nvars := 0
	symByte := func() *smt.Expr {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return b.Const(8, uint64(rng.Intn(256)))
		default:
			if nvars > 0 && rng.Intn(2) == 0 {
				return b.Var(8, fmt.Sprintf("v%d", rng.Intn(nvars)))
			}
			nvars++
			return b.Var(8, fmt.Sprintf("v%d", nvars-1))
		}
	}
	check := func(step int, s *side, a uint32) {
		t.Helper()
		want := s.ref[a]
		c, e := s.m.LoadByteRaw(a)
		if c != want.c || e != want.s {
			t.Fatalf("step %d: %#x = (%d, %v), reference (%d, %v)", step, a, c, e, want.c, want.s)
		}
		// Load folds a constant expression into the concrete part, so
		// only plain and truly symbolic bytes compare directly.
		if v := s.m.Load(a, 1); (want.s == nil || !want.s.IsConst()) &&
			(v.C != uint32(want.c) || (want.s == nil) != (v.Sym == nil)) {
			t.Fatalf("step %d: Load(%#x, 1) = %+v, reference (%d, %v)", step, a, v, want.c, want.s)
		}
	}
	// warm fills both TLBs of s with the page of a: a load, then (unless
	// s is frozen) a store of the byte's current value.
	warm := func(s *side, a uint32) {
		s.m.Load(a, 1)
		if !s.frozen {
			rb := s.ref[a]
			s.m.StoreByte(a, rb.c, rb.s)
		}
	}
	checkAll := func(step int) {
		t.Helper()
		for _, s := range sides {
			for a := range touched {
				check(step, s, a)
			}
		}
		checkLineOwnership(t, step, func(yield func(*Memory)) {
			for _, s := range sides {
				yield(s.m)
			}
		})
	}

	for step := 0; step < 3000; step++ {
		s := sides[rng.Intn(len(sides))]
		var at []uint32 // bytes this step may have changed
		switch op := rng.Intn(22); {
		case op < 2 && len(sides) < 12: // clone; both sides keep going
			sides = append(sides, newSide(s.m.Clone(), s.ref.clone()))
		case op == 2 && !s.frozen && rng.Intn(4) == 0: // freeze into a snapshot
			s.m.Freeze()
			s.frozen = true
		case op == 20 && len(sides) < 12: // clone with warm TLBs, then write the warm page on both sides
			a := addr()
			warm(s, a)
			if !s.frozen && rng.Intn(4) == 0 {
				s.m.Freeze()
				s.frozen = true
			}
			c := newSide(s.m.Clone(), s.ref.clone())
			sides = append(sides, c)
			for _, w := range []*side{s, c} {
				if w.frozen {
					continue
				}
				v := Concrete(rng.Uint32())
				w.m.Store(a&^3, 4, v)
				for i := uint32(0); i < 4; i++ {
					w.ref[a&^3+i] = refByte{byte(v.C >> (8 * i)), nil}
					at = append(at, a&^3+i)
				}
			}
		case op < 4: // multi-byte load
			a, n := addr(), []int{1, 2, 4}[rng.Intn(3)]
			v := s.m.Load(a, n)
			// Load folds a word whose symbolic bytes are all constant
			// expressions into a concrete value built from those
			// constants; a word with a true variable keeps the concrete
			// parts.
			var c, folded uint32
			sym, allConst := false, true
			for i := 0; i < n; i++ {
				rb := s.ref[a+uint32(i)]
				c |= uint32(rb.c) << (8 * i)
				fb := rb.c
				if rb.s != nil {
					sym = true
					if rb.s.IsConst() {
						fb = byte(rb.s.Val)
					} else {
						allConst = false
					}
				}
				folded |= uint32(fb) << (8 * i)
			}
			if allConst {
				c, sym = folded, false
			}
			if v.C != c || (!sym && v.Sym != nil) {
				t.Fatalf("step %d: Load(%#x, %d) = %+v, reference %#x (symbolic bytes: %v)", step, a, n, v, c, sym)
			}
		case s.frozen:
			continue // a frozen snapshot is only cloned and read
		case op < 10: // byte store
			a, c, e := addr(), byte(rng.Intn(256)), symByte()
			s.m.StoreByte(a, c, e)
			s.ref[a] = refByte{c, e}
			at = []uint32{a}
		case op < 13: // word store, concrete or symbolic
			a, n := addr(), []int{1, 2, 4}[rng.Intn(3)]
			v := Concrete(rng.Uint32())
			if rng.Intn(2) == 0 {
				v.Sym = b.Var(32, fmt.Sprintf("w%d", step))
			}
			s.m.Store(a, n, v)
			for i := 0; i < n; i++ {
				var e *smt.Expr
				if v.Sym != nil {
					e = b.Extract(v.Sym, uint8(i*8+7), uint8(i*8))
				}
				s.ref[a+uint32(i)] = refByte{byte(v.C >> (8 * i)), e}
				at = append(at, a+uint32(i))
			}
		case op < 15: // fresh symbolic input bytes
			a := addr()
			conc := make([]byte, 1+rng.Intn(8))
			rng.Read(conc)
			exprs := s.m.MakeSymbolic(a, conc, fmt.Sprintf("in%d", step))
			for i := range conc {
				s.ref[a+uint32(i)] = refByte{conc[i], exprs[i]}
				at = append(at, a+uint32(i))
			}
		default: // substitute a new model, after warming the TLBs on a symbolic byte
			lowest, found := uint32(0), false
			for a, rb := range s.ref {
				if rb.s != nil && (!found || a < lowest) {
					lowest, found = a, true
				}
			}
			if found {
				warm(s, lowest)
			}
			model := smt.Assignment{}
			for id := 0; id < b.NumVars(); id++ {
				if rng.Intn(3) > 0 {
					model[id] = rng.Uint64()
				}
			}
			ev := smt.NewEvaluator(model)
			before, changed := s.writes, 0
			s.m.Reconcretize(ev)
			for a, rb := range s.ref {
				if rb.s == nil {
					continue
				}
				if nb := byte(ev.Eval(rb.s)); nb != rb.c {
					s.ref[a] = refByte{nb, rb.s}
					changed++
				}
				at = append(at, a)
			}
			ev.Release()
			if got := s.writes - before; got != changed {
				t.Fatalf("step %d: Reconcretize notified %d writes, %d bytes changed", step, got, changed)
			}
		}
		for _, a := range at {
			touched[a] = true
			for _, o := range sides {
				check(step, o, a)
			}
		}
		if step%50 == 0 {
			checkAll(step)
		}
	}
	checkAll(-1)
}

// checkLineOwnership asserts the page invariant the shadow's copy-on-write
// relies on: a line that a writable (unshared) page owns is referenced
// by no other page of any memory, so writing it in place cannot leak
// into a clone.
func checkLineOwnership(t *testing.T, step int, mems func(func(*Memory))) {
	t.Helper()
	refs := map[*symLine]map[*page]bool{}
	mems(func(m *Memory) {
		for _, p := range m.pages {
			for _, ln := range p.lines {
				if ln != nil {
					if refs[ln] == nil {
						refs[ln] = map[*page]bool{}
					}
					refs[ln][p] = true
				}
			}
		}
	})
	mems(func(m *Memory) {
		for idx, p := range m.pages {
			if p.shared {
				continue
			}
			for li, ln := range p.lines {
				if ln != nil && p.own&(1<<li) != 0 && len(refs[ln]) != 1 {
					t.Fatalf("step %d: page %#x line %d is owned but referenced by %d pages",
						step, idx, li, len(refs[ln]))
				}
			}
		}
	})
}

// TestConcreteStoresAllocateNoShadow: concrete stores, and nil stored
// over nil on a symbolic page, neither allocate nor copy a shadow line.
func TestConcreteStoresAllocateNoShadow(t *testing.T) {
	b := smt.NewBuilder()
	m := NewMemory(b)
	const idx = 0x4000 >> pageBits
	m.WriteBytes(0x4000, make([]byte, pageSize))
	m.Store(0x4010, 4, Concrete(0xdeadbeef))
	if p := m.pages[idx]; p.lines != [pageLines]*symLine{} {
		t.Fatal("concrete stores allocated a shadow line")
	}
	m.MakeSymbolic(0x4000, []byte{1}, "x")
	c := m.Clone()
	c.StoreByte(0x4001, 7, nil) // same line as x, nil over nil
	if cp, p := c.pages[idx], m.pages[idx]; cp.lines[0] != p.lines[0] || cp.own != 0 {
		t.Fatal("nil over nil copied the shared line")
	}
	c.StoreByte(0x4000, 7, nil) // clears x: the line must be copied first
	if cp, p := c.pages[idx], m.pages[idx]; cp.lines[0] == p.lines[0] || cp.own != 1 {
		t.Fatal("clearing a shared entry wrote the shared line")
	}
	if _, e := m.LoadByteRaw(0x4000); e == nil {
		t.Fatal("the clone's store cleared the original's symbolic byte")
	}
}
