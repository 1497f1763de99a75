package smt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"sort"
	"testing"
)

// pathStream is a seeded stream of Check calls shaped like concolic
// exploration on one long-lived solver: a path condition over 8-bit
// variables grows one branch at a time, every query is the prefix plus
// a candidate branch condition, and the path is reset now and then. A
// sat branch is taken; an unsat one is negated and taken, which keeps
// the prefix satisfiable. Terms mix add, mul, xor, urem and the
// comparisons, so queries share a long blasted prefix and need real
// conflict analysis.
type pathStream struct {
	b      *Builder
	s      *Solver
	rng    *rand.Rand
	vars   []*Expr
	sites  []*Expr // branch conditions of the "program", reused across paths
	prefix []*Expr
	depth  int // reset the path when prefix reaches this length
}

func newPathStream(seed int64) *pathStream {
	b := NewBuilder()
	ps := &pathStream{b: b, s: NewSolver(b), rng: rand.New(rand.NewSource(seed))}
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		ps.vars = append(ps.vars, b.Var(8, n))
	}
	for i := 0; i < 24; i++ {
		ps.sites = append(ps.sites, ps.cond())
	}
	ps.reset()
	return ps
}

func (ps *pathStream) reset() {
	ps.prefix = ps.prefix[:0]
	ps.depth = 6 + ps.rng.Intn(30)
}

func (ps *pathStream) leaf() *Expr {
	if ps.rng.Intn(4) == 0 {
		return ps.b.Const(8, uint64(ps.rng.Intn(256)))
	}
	return ps.vars[ps.rng.Intn(len(ps.vars))]
}

func (ps *pathStream) term() *Expr {
	if ps.rng.Intn(3) == 0 {
		return ps.leaf()
	}
	x, y := ps.leaf(), ps.leaf()
	switch ps.rng.Intn(5) {
	case 0:
		return ps.b.Add(x, y)
	case 1:
		return ps.b.Mul(x, y)
	case 2:
		return ps.b.Xor(x, y)
	case 3:
		return ps.b.URem(x, y)
	default:
		return ps.b.Sub(x, y)
	}
}

func (ps *pathStream) cond() *Expr {
	x, y := ps.term(), ps.term()
	switch ps.rng.Intn(5) {
	case 0:
		return ps.b.Eq(x, y)
	case 1:
		return ps.b.Ne(x, y)
	case 2:
		return ps.b.Ult(x, y)
	case 3:
		return ps.b.Ule(x, y)
	default:
		return ps.b.Slt(x, y)
	}
}

// step issues one Check of the prefix plus a fresh branch condition and
// advances the path by the verdict.
func (ps *pathStream) step() (sat bool, model Assignment, unknown bool) {
	// Most branches are the program's fixed sites, either way round, so
	// a path that meets a site twice can contradict itself; one in
	// sixteen compares an offset variable with a constant, the way
	// checks of a packet's fields do, and grows the CNF a little.
	c := ps.sites[ps.rng.Intn(len(ps.sites))]
	if ps.rng.Intn(2) == 0 {
		c = ps.b.Not(c)
	}
	if ps.rng.Intn(16) == 0 {
		v := ps.vars[ps.rng.Intn(len(ps.vars))]
		k := func() *Expr { return ps.b.Const(8, uint64(ps.rng.Intn(32))*8) }
		c = ps.b.Ult(ps.b.Add(v, k()), k())
	}
	sat, model, unknown = ps.s.Check(append(ps.prefix, c)...)
	if sat {
		ps.prefix = append(ps.prefix, c)
	} else if !unknown {
		ps.prefix = append(ps.prefix, ps.b.Not(c))
	}
	if len(ps.prefix) >= ps.depth {
		ps.reset()
	}
	return sat, model, unknown
}

func hashInt(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

// hashModel writes m into h in ascending variable-id order.
func hashModel(h hash.Hash, m Assignment) {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	hashInt(h, uint64(len(ids)))
	for _, id := range ids {
		hashInt(h, uint64(id))
		hashInt(h, m[id])
	}
}

// solverStreamHash runs n steps of the seeded path stream and hashes
// every verdict, every model and the final conflict and propagation
// counts. It also reports the verdict tallies.
func solverStreamHash(seed int64, n int) (sum string, nSat, nUnsat int, st Stats) {
	ps := newPathStream(seed)
	h := sha256.New()
	for i := 0; i < n; i++ {
		sat, model, unknown := ps.step()
		switch {
		case unknown:
			hashInt(h, 2)
		case sat:
			nSat++
			hashInt(h, 1)
			hashModel(h, model)
		default:
			nUnsat++
			hashInt(h, 0)
		}
	}
	st = ps.s.Stats
	hashInt(h, uint64(st.Conflicts))
	hashInt(h, uint64(st.SatProps))
	return hex.EncodeToString(h.Sum(nil)), nSat, nUnsat, st
}

// satStreamHash drives the raw CDCL core on random CNFs that are not
// Tseitin definitions: mixed binary and ternary clauses near the
// satisfiability threshold, each instance solved repeatedly under
// random assumptions (some conflicting at assumption levels), plus one
// hard instance under a small conflict budget that must come back
// Unknown. Verdicts, full models and the final counters are hashed.
func satStreamHash(t *testing.T, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	var unknowns, unsats, sats, conflicts int
	for inst := 0; inst < 40; inst++ {
		s := NewSat()
		n := 40 + rng.Intn(40)
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		// Just below the mixed 2+3-SAT threshold, so that assumptions decide
		// most verdicts and the search has to work for them.
		nBin, nTern := n/3+rng.Intn(n/4), 5*n/2+rng.Intn(n/2)
		for c := 0; c < nBin+nTern; c++ {
			k := 3
			if c < nBin {
				k = 2
			}
			cl := make([]Lit, k)
			for i := range cl {
				cl[i] = MkLit(rng.Intn(n), rng.Intn(2) == 0)
			}
			if !s.AddClause(cl...) {
				break
			}
		}
		for q := 0; q < 25; q++ {
			as := make([]Lit, rng.Intn(6))
			for i := range as {
				as[i] = MkLit(rng.Intn(n), rng.Intn(2) == 0)
			}
			res := s.Solve(as...)
			hashInt(h, uint64(res))
			switch res {
			case SatResult:
				sats++
				for v := 0; v < s.NumVars(); v++ {
					if s.ModelValue(v) {
						hashInt(h, uint64(v))
					}
				}
			case Unsat:
				unsats++
			}
		}
		hashInt(h, uint64(s.Conflict))
		hashInt(h, uint64(s.Props))
		conflicts += s.Conflict
	}
	// Pigeonhole PHP(8,7) is far beyond 50 conflicts.
	s := NewSat()
	const P, H = 8, 7
	for p := 0; p < P; p++ {
		cl := make([]Lit, H)
		for hh := 0; hh < H; hh++ {
			s.NewVar()
			cl[hh] = MkLit(p*H+hh, false)
		}
		s.AddClause(cl...)
	}
	for hh := 0; hh < H; hh++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(MkLit(p1*H+hh, true), MkLit(p2*H+hh, true))
			}
		}
	}
	s.Budget = 50
	if res := s.Solve(); res == Unknown {
		unknowns++
	}
	hashInt(h, uint64(s.Conflict))
	hashInt(h, uint64(s.Props))
	t.Logf("raw: sat %d unsat %d conflicts %d", sats, unsats, conflicts)
	if sats == 0 || unsats == 0 || unknowns != 1 {
		t.Fatalf("raw stream must mix verdicts: sat %d unsat %d unknown %d", sats, unsats, unknowns)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSolverTracePinned pins the solver's search bit for bit: the
// verdicts, the models and the conflict and propagation counts of a
// seeded 2400-query path stream, and of the raw CDCL core on random
// CNFs under assumptions. A change to the solver's data layout must
// leave both hashes unchanged; a change that alters the search (a new
// heuristic, clause deletion, another decision order) changes them and
// must say so when it records new ones.
func TestSolverTracePinned(t *testing.T) {
	const (
		wantStream = "e6c24b1bb8ae479cbca2adf0f04101c9c8a593c69fc3e77384f7cd208f4f9ff3"
		wantSat    = "e0b3271aacd277d886fefe7fbd6812c21e53a44ca86864769ede38ca5422b2e3"
	)
	sum, nSat, nUnsat, st := solverStreamHash(1, 2400)
	t.Logf("stream: sat %d unsat %d conflicts %d props %d vars %d", nSat, nUnsat, st.Conflicts, st.SatProps, st.SatVars)
	if nSat < 500 || nUnsat < 200 || st.Conflicts < 1000 {
		t.Fatalf("stream too easy to pin the search: sat %d unsat %d conflicts %d", nSat, nUnsat, st.Conflicts)
	}
	if sum != wantStream {
		t.Errorf("path-stream hash = %s, want %s", sum, wantStream)
	}
	if got := satStreamHash(t, 7); got != wantSat {
		t.Errorf("raw SAT hash = %s, want %s", got, wantSat)
	}
}

var streamSink bool

// BenchmarkSolverPathStream measures the solver on the pinned path
// stream: each iteration is one Check, reported per query with its
// allocations. The stream restarts from its seed every 2400 queries so
// the CNF size stays that of the pinned test.
func BenchmarkSolverPathStream(b *testing.B) {
	b.ReportAllocs()
	ps := newPathStream(1)
	for i := 0; i < b.N; i++ {
		if i > 0 && i%2400 == 0 {
			b.StopTimer()
			ps = newPathStream(1)
			b.StartTimer()
		}
		streamSink, _, _ = ps.step()
	}
}
