package smt

import "fmt"

// blaster converts bitvector expressions into CNF over the SAT solver
// using Tseitin encoding. Blasted structure is memoized, so repeated
// queries over a growing path condition (the common concolic pattern)
// reuse all previously emitted clauses and only the new suffix is encoded.
type blaster struct {
	sat     *Sat
	bld     *Builder
	bits    map[*Expr][]Lit
	varBits map[int][]Lit
	vars    []blastedVar // the varBits entries in blast order
	andMemo map[[2]Lit]Lit
	xorMemo map[[2]Lit]Lit
	litTrue Lit
}

// blastedVar is a builder variable and its LSB-first bit literals.
type blastedVar struct {
	id   int
	bits []Lit
}

func newBlaster(b *Builder, s *Sat) *blaster {
	bl := &blaster{
		sat:     s,
		bld:     b,
		bits:    make(map[*Expr][]Lit),
		varBits: make(map[int][]Lit),
		andMemo: make(map[[2]Lit]Lit),
		xorMemo: make(map[[2]Lit]Lit),
	}
	v := s.NewVar()
	bl.litTrue = MkLit(v, false)
	s.AddClause(bl.litTrue)
	return bl
}

func (bl *blaster) litFalse() Lit { return bl.litTrue.Flip() }

func (bl *blaster) constLit(b bool) Lit {
	if b {
		return bl.litTrue
	}
	return bl.litFalse()
}

func (bl *blaster) isTrue(l Lit) bool  { return l == bl.litTrue }
func (bl *blaster) isFalse(l Lit) bool { return l == bl.litFalse() }

// mkAnd returns a literal equivalent to a AND b.
func (bl *blaster) mkAnd(a, b Lit) Lit {
	if bl.isFalse(a) || bl.isFalse(b) {
		return bl.litFalse()
	}
	if bl.isTrue(a) {
		return b
	}
	if bl.isTrue(b) {
		return a
	}
	if a == b {
		return a
	}
	if a == b.Flip() {
		return bl.litFalse()
	}
	if a > b {
		a, b = b, a
	}
	key := [2]Lit{a, b}
	if o, ok := bl.andMemo[key]; ok {
		return o
	}
	o := MkLit(bl.sat.NewVar(), false)
	bl.sat.AddClause(o.Flip(), a)
	bl.sat.AddClause(o.Flip(), b)
	bl.sat.AddClause(o, a.Flip(), b.Flip())
	bl.andMemo[key] = o
	return o
}

func (bl *blaster) mkOr(a, b Lit) Lit { return bl.mkAnd(a.Flip(), b.Flip()).Flip() }

// mkXor returns a literal equivalent to a XOR b.
func (bl *blaster) mkXor(a, b Lit) Lit {
	if bl.isFalse(a) {
		return b
	}
	if bl.isFalse(b) {
		return a
	}
	if bl.isTrue(a) {
		return b.Flip()
	}
	if bl.isTrue(b) {
		return a.Flip()
	}
	if a == b {
		return bl.litFalse()
	}
	if a == b.Flip() {
		return bl.litTrue
	}
	// Normalize: strip sign into the output.
	flip := false
	if a.Neg() {
		a = a.Flip()
		flip = !flip
	}
	if b.Neg() {
		b = b.Flip()
		flip = !flip
	}
	if a > b {
		a, b = b, a
	}
	key := [2]Lit{a, b}
	o, ok := bl.xorMemo[key]
	if !ok {
		o = MkLit(bl.sat.NewVar(), false)
		bl.sat.AddClause(o.Flip(), a, b)
		bl.sat.AddClause(o.Flip(), a.Flip(), b.Flip())
		bl.sat.AddClause(o, a.Flip(), b)
		bl.sat.AddClause(o, a, b.Flip())
		bl.xorMemo[key] = o
	}
	if flip {
		return o.Flip()
	}
	return o
}

// mkMux returns s ? t : f.
func (bl *blaster) mkMux(s, t, f Lit) Lit {
	if bl.isTrue(s) {
		return t
	}
	if bl.isFalse(s) {
		return f
	}
	if t == f {
		return t
	}
	return bl.mkOr(bl.mkAnd(s, t), bl.mkAnd(s.Flip(), f))
}

// fullAdder returns (sum, carryOut).
func (bl *blaster) fullAdder(a, b, cin Lit) (Lit, Lit) {
	axb := bl.mkXor(a, b)
	sum := bl.mkXor(axb, cin)
	carry := bl.mkOr(bl.mkAnd(a, b), bl.mkAnd(cin, axb))
	return sum, carry
}

// add returns a+b (LSB-first), dropping the final carry.
func (bl *blaster) add(a, b []Lit) []Lit {
	out := make([]Lit, len(a))
	c := bl.litFalse()
	for i := range a {
		out[i], c = bl.fullAdder(a[i], b[i], c)
	}
	return out
}

// sub returns a-b via a + ^b + 1.
func (bl *blaster) sub(a, b []Lit) []Lit {
	out := make([]Lit, len(a))
	c := bl.litTrue
	for i := range a {
		out[i], c = bl.fullAdder(a[i], b[i].Flip(), c)
	}
	return out
}

// ult returns the borrow-out of a-b, i.e. a < b unsigned.
func (bl *blaster) ult(a, b []Lit) Lit {
	// borrow chain: borrow = (~a & b) | (borrow & ~(a ^ b))
	borrow := bl.litFalse()
	for i := range a {
		nab := bl.mkAnd(a[i].Flip(), b[i])
		eq := bl.mkXor(a[i], b[i]).Flip()
		borrow = bl.mkOr(nab, bl.mkAnd(borrow, eq))
	}
	return borrow
}

func (bl *blaster) eqVec(a, b []Lit) Lit {
	out := bl.litTrue
	for i := range a {
		out = bl.mkAnd(out, bl.mkXor(a[i], b[i]).Flip())
	}
	return out
}

// shift performs a barrel shift. dir: 0=shl, 1=lshr, 2=ashr. amt has the
// same width as a; amounts >= len(a) produce 0 (sign for ashr).
func (bl *blaster) shift(a, amt []Lit, dir int) []Lit {
	w := len(a)
	fill := bl.litFalse()
	if dir == 2 {
		fill = a[w-1]
	}
	cur := append([]Lit(nil), a...)
	// Stages for amount bits that address positions < w.
	stages := 0
	for (1 << stages) < w {
		stages++
	}
	for s := 0; s < stages; s++ {
		d := 1 << s
		next := make([]Lit, w)
		for i := 0; i < w; i++ {
			var shifted Lit
			switch dir {
			case 0: // shl
				if i >= d {
					shifted = cur[i-d]
				} else {
					shifted = bl.litFalse()
				}
			default: // lshr/ashr
				if i+d < w {
					shifted = cur[i+d]
				} else {
					shifted = fill
				}
			}
			next[i] = bl.mkMux(amt[s], shifted, cur[i])
		}
		cur = next
	}
	// If any amount bit >= stages is set, the full result is fill/zero.
	big := bl.litFalse()
	for s := stages; s < len(amt); s++ {
		big = bl.mkOr(big, amt[s])
	}
	// Also handle w not a power of two: amount in [w, 2^stages) must
	// produce the fill value as well.
	if w != 1<<stages {
		wConst := bl.constBits(uint64(w), uint8(len(amt)))
		geW := bl.ult(amt, wConst).Flip()
		big = bl.mkOr(big, geW)
	}
	if !bl.isFalse(big) {
		out := make([]Lit, w)
		zfill := bl.litFalse()
		if dir == 2 {
			zfill = fill
		}
		for i := range cur {
			out[i] = bl.mkMux(big, zfill, cur[i])
		}
		cur = out
	}
	return cur
}

func (bl *blaster) constBits(v uint64, w uint8) []Lit {
	out := make([]Lit, w)
	for i := range out {
		out[i] = bl.constLit(v>>i&1 == 1)
	}
	return out
}

// mul returns a*b via shift-and-add partial products.
func (bl *blaster) mul(a, b []Lit) []Lit {
	w := len(a)
	acc := bl.constBits(0, uint8(w))
	for i := 0; i < w; i++ {
		if bl.isFalse(b[i]) {
			continue
		}
		// partial = (a << i) AND b[i]
		part := make([]Lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				part[j] = bl.litFalse()
			} else {
				part[j] = bl.mkAnd(a[j-i], b[i])
			}
		}
		acc = bl.add(acc, part)
	}
	return acc
}

// divRem implements restoring division. Returns (quotient, remainder).
// For divisor zero this yields q=all-ones, r=a, matching SMT-LIB.
func (bl *blaster) divRem(a, b []Lit) (q, r []Lit) {
	w := len(a)
	// Remainder register has w+1 bits to absorb the shifted-in bit.
	rem := bl.constBits(0, uint8(w+1))
	bExt := append(append([]Lit(nil), b...), bl.litFalse())
	q = make([]Lit, w)
	for i := w - 1; i >= 0; i-- {
		// rem = (rem << 1) | a[i]
		shifted := make([]Lit, w+1)
		shifted[0] = a[i]
		copy(shifted[1:], rem[:w])
		// ge = shifted >= bExt
		ge := bl.ult(shifted, bExt).Flip()
		diff := bl.sub(shifted, bExt)
		next := make([]Lit, w+1)
		for j := range next {
			next[j] = bl.mkMux(ge, diff[j], shifted[j])
		}
		rem = next
		q[i] = ge
	}
	return q, rem[:w]
}

// blast returns the LSB-first bit literals of e.
func (bl *blaster) blast(e *Expr) []Lit {
	if bits, ok := bl.bits[e]; ok {
		return bits
	}
	var out []Lit
	switch e.Kind {
	case KConst:
		out = bl.constBits(e.Val, e.Width)
	case KVar:
		id := int(e.Val)
		vb, ok := bl.varBits[id]
		if !ok {
			vb = make([]Lit, e.Width)
			for i := range vb {
				vb[i] = MkLit(bl.sat.NewVar(), false)
			}
			bl.varBits[id] = vb
			bl.vars = append(bl.vars, blastedVar{id, vb})
		}
		out = vb
	case KAdd:
		out = bl.add(bl.blast(e.K0), bl.blast(e.K1))
	case KSub:
		out = bl.sub(bl.blast(e.K0), bl.blast(e.K1))
	case KMul:
		out = bl.mul(bl.blast(e.K0), bl.blast(e.K1))
	case KUDiv:
		q, _ := bl.divRem(bl.blast(e.K0), bl.blast(e.K1))
		out = q
	case KURem:
		_, r := bl.divRem(bl.blast(e.K0), bl.blast(e.K1))
		out = r
	case KAnd:
		a, b := bl.blast(e.K0), bl.blast(e.K1)
		out = make([]Lit, len(a))
		for i := range a {
			out[i] = bl.mkAnd(a[i], b[i])
		}
	case KOr:
		a, b := bl.blast(e.K0), bl.blast(e.K1)
		out = make([]Lit, len(a))
		for i := range a {
			out[i] = bl.mkOr(a[i], b[i])
		}
	case KXor:
		a, b := bl.blast(e.K0), bl.blast(e.K1)
		out = make([]Lit, len(a))
		for i := range a {
			out[i] = bl.mkXor(a[i], b[i])
		}
	case KNot:
		a := bl.blast(e.K0)
		out = make([]Lit, len(a))
		for i := range a {
			out[i] = a[i].Flip()
		}
	case KNeg:
		a := bl.blast(e.K0)
		na := make([]Lit, len(a))
		for i := range a {
			na[i] = a[i].Flip()
		}
		out = bl.add(na, bl.constBits(1, e.Width))
	case KShl:
		out = bl.shift(bl.blast(e.K0), bl.blast(e.K1), 0)
	case KLShr:
		out = bl.shift(bl.blast(e.K0), bl.blast(e.K1), 1)
	case KAShr:
		out = bl.shift(bl.blast(e.K0), bl.blast(e.K1), 2)
	case KEq:
		out = []Lit{bl.eqVec(bl.blast(e.K0), bl.blast(e.K1))}
	case KUlt:
		out = []Lit{bl.ult(bl.blast(e.K0), bl.blast(e.K1))}
	case KUle:
		out = []Lit{bl.ult(bl.blast(e.K1), bl.blast(e.K0)).Flip()}
	case KSlt:
		a, b := bl.flipSign(bl.blast(e.K0)), bl.flipSign(bl.blast(e.K1))
		out = []Lit{bl.ult(a, b)}
	case KSle:
		a, b := bl.flipSign(bl.blast(e.K0)), bl.flipSign(bl.blast(e.K1))
		out = []Lit{bl.ult(b, a).Flip()}
	case KConcat:
		lo := bl.blast(e.K1)
		hi := bl.blast(e.K0)
		out = append(append([]Lit(nil), lo...), hi...)
	case KExtract:
		a := bl.blast(e.K0)
		hi, lo := int(e.Val>>8), int(e.Val&0xff)
		out = append([]Lit(nil), a[lo:hi+1]...)
	case KZExt:
		a := bl.blast(e.K0)
		out = append([]Lit(nil), a...)
		for len(out) < int(e.Width) {
			out = append(out, bl.litFalse())
		}
	case KSExt:
		a := bl.blast(e.K0)
		out = append([]Lit(nil), a...)
		s := a[len(a)-1]
		for len(out) < int(e.Width) {
			out = append(out, s)
		}
	case KIte:
		c := bl.blastBool(e.K0)
		t, f := bl.blast(e.K1), bl.blast(e.K2)
		out = make([]Lit, len(t))
		for i := range t {
			out[i] = bl.mkMux(c, t[i], f[i])
		}
	default:
		panic(fmt.Sprintf("smt: blast of %v", e.Kind))
	}
	if len(out) != int(e.Width) {
		panic(fmt.Sprintf("smt: blast width mismatch for %v: got %d want %d", e.Kind, len(out), e.Width))
	}
	bl.bits[e] = out
	return out
}

// flipSign flips the MSB (signed -> unsigned comparison shift).
func (bl *blaster) flipSign(a []Lit) []Lit {
	out := append([]Lit(nil), a...)
	out[len(out)-1] = out[len(out)-1].Flip()
	return out
}

// blastBool blasts a width-1 expression to a single literal.
func (bl *blaster) blastBool(e *Expr) Lit {
	if e.Width != 1 {
		panic("smt: blastBool on wide expression")
	}
	return bl.blast(e)[0]
}
