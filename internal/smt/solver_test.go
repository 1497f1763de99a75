package smt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rvcte/internal/obs"
)

func checkSat(t *testing.T, s *Solver, conds ...*Expr) Assignment {
	t.Helper()
	sat, model, unknown := s.Check(conds...)
	if unknown {
		t.Fatal("solver budget exhausted")
	}
	if !sat {
		t.Fatal("expected sat")
	}
	// Validate the model against the original expressions.
	for _, c := range conds {
		if Eval(c, model) != 1 {
			t.Fatalf("model does not satisfy %v (model %v)", c, model)
		}
	}
	return model
}

func checkUnsat(t *testing.T, s *Solver, conds ...*Expr) {
	t.Helper()
	sat, _, unknown := s.Check(conds...)
	if unknown {
		t.Fatal("solver budget exhausted")
	}
	if sat {
		t.Fatal("expected unsat")
	}
}

func TestSolverBasic(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.Var(32, "x")

	checkSat(t, s, b.Eq(x, b.Const(32, 42)))
	checkUnsat(t, s, b.Eq(x, b.Const(32, 1)), b.Eq(x, b.Const(32, 2)))
	m := checkSat(t, s, b.Eq(b.Add(x, b.Const(32, 1)), b.Const(32, 0)))
	if m[0] != 0xffffffff {
		t.Errorf("x+1==0 needs x=0xffffffff, got %#x", m[0])
	}
}

func TestSolverArithmetic(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.Var(32, "x")
	y := b.Var(32, "y")

	// x*y == 221, x > 1, y > 1, x <= y: 13*17.
	m := checkSat(t, s,
		b.Eq(b.Mul(x, y), b.Const(32, 221)),
		b.Ult(b.Const(32, 1), x),
		b.Ult(b.Const(32, 1), y),
		b.Ule(x, y),
		b.Ult(x, b.Const(32, 100)),
		b.Ult(y, b.Const(32, 100)),
	)
	if m[0]*m[1] != 221 {
		t.Errorf("factorization model wrong: %d * %d", m[0], m[1])
	}

	// Unsigned overflow: no x with x+1 < x unless x is max... actually
	// x+1 < x (unsigned, wrapped) holds exactly for x = 0xffffffff.
	m2 := checkSat(t, s, b.Ult(b.Add(x, b.Const(32, 1)), x))
	if m2[0] != 0xffffffff {
		t.Errorf("overflow witness: got %#x", m2[0])
	}
}

func TestSolverDivision(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.Var(32, "x")

	m := checkSat(t, s,
		b.Eq(b.UDiv(x, b.Const(32, 7)), b.Const(32, 6)),
		b.Eq(b.URem(x, b.Const(32, 7)), b.Const(32, 3)),
	)
	if m[0] != 45 {
		t.Errorf("x/7==6 && x%%7==3: got %d want 45", m[0])
	}
	// Division by zero: q must be all-ones.
	checkUnsat(t, s, b.Ne(b.UDiv(x, b.Const(32, 0)), b.Const(32, 0xffffffff)))
	// Remainder by zero: r == a.
	checkUnsat(t, s, b.Ne(b.URem(x, b.Const(32, 0)), x))
}

func TestSolverShifts(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.Var(32, "x")
	sh := b.Var(32, "sh")

	m := checkSat(t, s,
		b.Eq(b.Shl(b.Const(32, 1), sh), b.Const(32, 0x1000)),
		b.Ult(sh, b.Const(32, 32)),
	)
	if m[b.varID("sh")] != 12 {
		t.Errorf("1<<sh == 0x1000: sh=%d want 12", m[b.varID("sh")])
	}
	// Symbolic shift >= width gives zero.
	checkUnsat(t, s,
		b.Uge(sh, b.Const(32, 32)),
		b.Ne(b.Shl(x, sh), b.Const(32, 0)),
	)
	// Arithmetic shift keeps the sign.
	checkUnsat(t, s,
		b.Slt(x, b.Const(32, 0)),
		b.Sge(b.AShr(x, b.Const(32, 31)), b.Const(32, 0)),
	)
}

// varID is a test helper to find a variable id by name.
func (b *Builder) varID(name string) int {
	for id, n := range b.varNames {
		if n == name {
			return id
		}
	}
	return -1
}

func TestSolverSignedComparisons(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.Var(32, "x")

	// Signed: x < 0 and x > 100 unsigned is satisfiable (negative values
	// are large unsigned).
	checkSat(t, s, b.Slt(x, b.Const(32, 0)), b.Ugt(x, b.Const(32, 100)))
	// x < 0 signed and x < 100 unsigned is unsat for 32-bit.
	checkUnsat(t, s, b.Slt(x, b.Const(32, 0)), b.Ult(x, b.Const(32, 100)))
	// INT_MIN is <= everything signed.
	checkUnsat(t, s, b.Slt(x, b.Const(32, 0x80000000)))
}

func TestSolverIteAndExtract(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.Var(32, "x")

	// ite(x<10, x+1, 0) == 5  =>  x == 4
	cond := b.Ult(x, b.Const(32, 10))
	e := b.Ite(cond, b.Add(x, b.Const(32, 1)), b.Const(32, 0))
	m := checkSat(t, s, b.Eq(e, b.Const(32, 5)))
	if m[0] != 4 {
		t.Errorf("ite equation: x=%d want 4", m[0])
	}

	// Low byte must be 0xAB and the word must be < 0x200: x = 0x1AB.
	m2 := checkSat(t, s,
		b.Eq(b.Extract(x, 7, 0), b.Const(8, 0xab)),
		b.Ult(x, b.Const(32, 0x200)),
		b.Uge(x, b.Const(32, 0x100)),
	)
	if m2[0] != 0x1ab {
		t.Errorf("extract equation: x=%#x want 0x1ab", m2[0])
	}
}

func TestSolverConcatSextZext(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	lo := b.Var(8, "lo")
	hi := b.Var(8, "hi")

	m := checkSat(t, s, b.Eq(b.Concat(hi, lo), b.Const(16, 0xbeef)))
	if m[b.varID("hi")] != 0xbe || m[b.varID("lo")] != 0xef {
		t.Errorf("concat: hi=%#x lo=%#x", m[b.varID("hi")], m[b.varID("lo")])
	}
	// sext(0x80,32) == 0xffffff80
	v := b.Var(8, "v")
	m2 := checkSat(t, s, b.Eq(b.SExt(v, 32), b.Const(32, 0xffffff80)))
	if m2[b.varID("v")] != 0x80 {
		t.Errorf("sext: v=%#x", m2[b.varID("v")])
	}
	// zext never produces a value >= 256.
	checkUnsat(t, s, b.Uge(b.ZExt(v, 32), b.Const(32, 256)))
}

func TestSolverIncrementalPathCondition(t *testing.T) {
	// Emulates the concolic usage pattern: a growing path condition with
	// one flipped branch per query.
	b := NewBuilder()
	s := NewSolver(b)
	x := b.Var(32, "x")

	epc := []*Expr{}
	branch := func(c *Expr) {
		// Query the negation under the current EPC, then extend the EPC.
		neg := append(append([]*Expr{}, epc...), b.Not(c))
		sat, model, _ := s.Check(neg...)
		if sat {
			for _, pc := range neg {
				if Eval(pc, model) != 1 {
					t.Fatalf("model invalid for %v", pc)
				}
			}
		}
		epc = append(epc, c)
	}
	branch(b.Ult(x, b.Const(32, 1000)))
	branch(b.Uge(x, b.Const(32, 10)))
	branch(b.Eq(b.URem(x, b.Const(32, 3)), b.Const(32, 0)))
	branch(b.Ne(x, b.Const(32, 12)))

	m := checkSat(t, s, epc...)
	xv := m[0]
	if xv >= 1000 || xv < 10 || xv%3 != 0 || xv == 12 {
		t.Errorf("EPC model wrong: %d", xv)
	}
	if s.Stats().Queries == 0 || s.Stats().SolverTime <= 0 {
		t.Error("stats not collected")
	}
}

func TestSolverBudget(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	s.MaxConflictsPerQuery = 1
	x := b.Var(32, "x")
	y := b.Var(32, "y")
	z := b.Var(32, "z")
	// A hard-ish query (multiplicative) to burn conflicts.
	_, _, unknown := s.Check(
		b.Eq(b.Mul(x, y), b.Mul(y, z)),
		b.Ne(x, z),
		b.Ne(y, b.Const(32, 0)),
		b.Eq(b.Mul(x, x), b.Add(b.Mul(z, z), b.Const(32, 1))),
	)
	// Either it solved instantly or it reported unknown — both are
	// acceptable; what matters is it did not loop forever and the flag
	// plumbed through.
	_ = unknown
}

// Property: for random constraints "x op c == r" built from a concrete
// witness, the solver must find some satisfying model (soundness +
// completeness on easy instances) and the model must evaluate true.
func TestSolverPropertyWitness(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.Var(32, "x")
	y := b.Var(32, "y")

	f := func(xv, yv uint32, opIdx uint8) bool {
		var e *Expr
		switch opIdx % 6 {
		case 0:
			e = b.Add(x, y)
		case 1:
			e = b.Sub(x, y)
		case 2:
			e = b.Xor(x, y)
		case 3:
			e = b.And(x, y)
		case 4:
			e = b.Or(x, y)
		default:
			e = b.Mul(x, b.Const(32, uint64(yv)))
		}
		env := Assignment{0: uint64(xv), 1: uint64(yv)}
		r := Eval(e, env)
		cond := b.Eq(e, b.Const(32, r))
		sat, model, unknown := s.Check(cond)
		if unknown || !sat {
			return false
		}
		return Eval(cond, model) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: blaster and evaluator agree. For a random expression e and a
// random environment, asserting e == Eval(e, env) with vars pinned to env
// must be satisfiable; asserting e != that value with vars pinned must be
// unsatisfiable.
func TestBlastEvalAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 30; iter++ {
		b := NewBuilder()
		s := NewSolver(b)
		vars := []*Expr{b.Var(32, "a"), b.Var(32, "b")}
		e := randomExpr(rng, b, vars, 3)
		env := Assignment{0: uint64(rng.Uint32()), 1: uint64(rng.Uint32())}
		want := Eval(e, env)
		pin := []*Expr{
			b.Eq(vars[0], b.Const(32, env[0])),
			b.Eq(vars[1], b.Const(32, env[1])),
		}
		sat, _, unknown := s.Check(append(pin, b.Eq(e, b.Const(e.Width, want)))...)
		if unknown {
			t.Fatal("unexpected unknown")
		}
		if !sat {
			t.Fatalf("iter %d: e == eval(e) under pinned vars must be sat; e=%v env=%v want=%#x", iter, e, env, want)
		}
		sat, _, _ = s.Check(append(pin, b.Ne(e, b.Const(e.Width, want)))...)
		if sat {
			t.Fatalf("iter %d: e != eval(e) under pinned vars must be unsat; e=%v", iter, e)
		}
	}
}

func TestSatSolverDirect(t *testing.T) {
	s := NewSat()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	// (a | b) & (!a | c) & (!b | c) & !c  => unsat... check: !c forces
	// c=false; then !a and !b; then a|b fails. Unsat.
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, true), MkLit(c, false))
	s.AddClause(MkLit(b, true), MkLit(c, false))
	s.AddClause(MkLit(c, true))
	if s.Solve() != Unsat {
		t.Error("expected unsat")
	}
}

func TestSatAssumptionsRetractable(t *testing.T) {
	s := NewSat()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false)) // a | b
	if s.Solve(MkLit(a, true), MkLit(b, true)) != Unsat {
		t.Error("a|b under !a,!b must be unsat")
	}
	// Retracting the assumptions must leave the formula satisfiable.
	if s.Solve() != SatResult {
		t.Error("formula must remain sat after assumptions retracted")
	}
	if s.Solve(MkLit(a, true)) != SatResult {
		t.Error("a|b under !a must be sat (b)")
	}
}

func TestSatPigeonhole(t *testing.T) {
	// PHP(4,3): 4 pigeons, 3 holes — classic small unsat instance that
	// requires real conflict analysis.
	s := NewSat()
	v := make([][]int, 4)
	for p := range v {
		v[p] = make([]int, 3)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < 4; p++ {
		s.AddClause(MkLit(v[p][0], false), MkLit(v[p][1], false), MkLit(v[p][2], false))
	}
	for h := 0; h < 3; h++ {
		for p1 := 0; p1 < 4; p1++ {
			for p2 := p1 + 1; p2 < 4; p2++ {
				s.AddClause(MkLit(v[p1][h], true), MkLit(v[p2][h], true))
			}
		}
	}
	if s.Solve() != Unsat {
		t.Error("PHP(4,3) must be unsat")
	}
	if s.Conflict == 0 {
		t.Error("expected at least one conflict on PHP")
	}
}

func TestSatRandom3SATSatisfiable(t *testing.T) {
	// Plant a solution and generate clauses consistent with it; solver
	// must find some model satisfying all clauses.
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		s := NewSat()
		n := 30
		sol := make([]bool, n)
		for i := 0; i < n; i++ {
			s.NewVar()
			sol[i] = rng.Intn(2) == 0
		}
		var clauses [][]Lit
		for c := 0; c < 120; c++ {
			var cl []Lit
			okCl := false
			for k := 0; k < 3; k++ {
				v := rng.Intn(n)
				neg := rng.Intn(2) == 0
				cl = append(cl, MkLit(v, neg))
				if neg != sol[v] {
					okCl = true
				}
			}
			if !okCl {
				// Flip one literal to keep the planted solution valid.
				cl[0] = cl[0].Flip()
			}
			clauses = append(clauses, cl)
			s.AddClause(cl...)
		}
		if s.Solve() != SatResult {
			t.Fatalf("iter %d: planted instance must be sat", iter)
		}
		for ci, cl := range clauses {
			ok := false
			for _, l := range cl {
				val := s.ModelValue(l.Var())
				if l.Neg() {
					val = !val
				}
				if val {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("iter %d: model violates clause %d", iter, ci)
			}
		}
	}
}

func TestBuilderValueHelper(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.Var(16, "px")
	m := checkSat(t, s, b.Eq(x, b.Const(16, 0x1234)))
	if b.Value(m, "px") != 0x1234 {
		t.Errorf("Value: %#x", b.Value(m, "px"))
	}
	if b.Value(m, "nonexistent") != 0 {
		t.Error("Value of unknown var must be 0")
	}
}

// TestSolver64BitMulPath: MULH-style constraints build 64-bit
// expressions (sext to 64, multiply, extract the high word); the blaster
// must handle the full width.
func TestSolver64BitMulPath(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.Var(32, "x")

	// high32(sext(x) * sext(3)) == 0xffffffff means x is negative
	// (small negative * 3 keeps the high word all-ones).
	p := b.Mul(b.SExt(x, 64), b.SExt(b.Const(32, 3), 64))
	hi := b.Extract(p, 63, 32)
	m := checkSat(t, s,
		b.Eq(hi, b.Const(32, 0xffffffff)),
		b.Ult(b.Const(32, 0x80000000), x), // x strictly negative
	)
	if int32(m[0]) >= 0 {
		t.Errorf("x = %#x should be negative", m[0])
	}
	// Unsigned high word of x*x == 0 forces x < 2^16.
	p2 := b.Mul(b.ZExt(x, 64), b.ZExt(x, 64))
	hi2 := b.Extract(p2, 63, 32)
	checkUnsat(t, s,
		b.Eq(hi2, b.Const(32, 0)),
		b.Uge(x, b.Const(32, 0x10000)),
	)
}

// TestSolverStatsAccumulate: statistics must be cumulative across
// queries.
func TestSolverStatsAccumulate(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.Var(32, "x")
	for i := 0; i < 5; i++ {
		s.Check(b.Eq(x, b.Const(32, uint64(i))))
	}
	if s.Stats().Queries != 5 {
		t.Errorf("queries: %d", s.Stats().Queries)
	}
	if s.sat.NumVars() == 0 {
		t.Error("sat vars should be recorded")
	}
}

// TestSatBudgetIsPerQuery: the conflict budget bounds one Solve call,
// not the solver's lifetime. A solver that has already accumulated many
// conflicts from earlier queries must still answer a query whose own
// conflict count fits the budget (regression: the budget used to be
// compared against the cumulative counter, so every query after the
// first ones spuriously returned Unknown).
func TestSatBudgetIsPerQuery(t *testing.T) {
	s := NewSat()
	a := s.NewVar()
	b := s.NewVar()
	// UNSAT over {a,b}: solving requires at least one conflict.
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, false), MkLit(b, true))
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(a, true), MkLit(b, true))

	// Simulate a long-lived solver: many conflicts already accumulated.
	s.Conflict = 1_000_000
	s.Budget = 100
	if res := s.Solve(); res != Unsat {
		t.Fatalf("got %v, want Unsat: per-query budget must ignore conflicts from earlier queries", res)
	}
}

// hardFactorQuery builds "x * y == p*q && x > 1 && y > 1" over fresh
// 16-bit variables — the solver has to search for the factors, which
// reliably costs conflicts.
func hardFactorQuery(b *Builder, xn, yn string, p, q uint64) []*Expr {
	x := b.Var(16, xn)
	y := b.Var(16, yn)
	one := b.Const(16, 1)
	return []*Expr{
		b.Eq(b.Mul(x, y), b.Const(16, p*q)),
		b.Ugt(x, one),
		b.Ugt(y, one),
	}
}

// TestSolverBudgetNotCumulative runs two hard queries on one solver
// under a per-query conflict budget sized so that each query fits but
// their sum does not: the second query must not be starved.
func TestSolverBudgetNotCumulative(t *testing.T) {
	// Measure each query's conflict cost on an unbudgeted solver (the
	// solver is deterministic, so the budgeted run repeats it exactly).
	b := NewBuilder()
	s := NewSolver(b)
	q1 := hardFactorQuery(b, "bx", "by", 251, 241)
	q2 := hardFactorQuery(b, "bz", "bw", 239, 233)
	checkSat(t, s, q1...)
	c1 := s.sat.Conflict
	checkSat(t, s, q2...)
	c2 := s.sat.Conflict - c1
	if c1 < 2 || c2 < 2 {
		t.Fatalf("queries too easy to exercise the budget (c1=%d c2=%d); harden them", c1, c2)
	}

	budget := c1
	if c2 > budget {
		budget = c2
	}
	budget++ // each query fits ...
	if c1+c2 <= budget {
		t.Fatalf("budget %d not exceeded cumulatively (c1=%d c2=%d); the test would be vacuous", budget, c1, c2)
	}

	b2 := NewBuilder()
	s2 := NewSolver(b2)
	s2.MaxConflictsPerQuery = budget
	checkSat(t, s2, hardFactorQuery(b2, "bx", "by", 251, 241)...)
	// The regression: with a cumulative comparison the second query
	// crosses the budget and returns unknown.
	checkSat(t, s2, hardFactorQuery(b2, "bz", "bw", 239, 233)...)
}

// TestSolverBudgetStillBoundsQueries: a query genuinely harder than the
// budget must still return unknown (the fix must not disable limiting).
func TestSolverBudgetStillBoundsQueries(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	s.MaxConflictsPerQuery = 1
	_, _, unknown := s.Check(hardFactorQuery(b, "hx", "hy", 251, 241)...)
	if !unknown {
		t.Fatal("budget of 1 conflict should exhaust on a factoring query")
	}
}

// TestSolverObsLayers: Check's time splits into blasting and search
// (their sum stays within smt.solver_ns, which also covers model
// extraction), and the CNF size gauges grow with the CNF and sum over
// every solver wired to the same bundle.
func TestSolverObsLayers(t *testing.T) {
	o := obs.New()
	ps := newPathStream(3)
	ps.s.SetObs(o)
	read := func() *obs.Snapshot { return o.Registry().Snapshot() }
	for i := 0; i < 50; i++ {
		ps.step()
	}
	early := read()
	for i := 0; i < 250; i++ {
		ps.step()
	}
	snap := read()
	total, blast, search := snap.Counters["smt.solver_ns"], snap.Counters["smt.blast_ns"], snap.Counters["smt.search_ns"]
	if blast <= 0 || search <= 0 || blast+search > total {
		t.Errorf("time split: blast %d + search %d must be positive and within solver %d", blast, search, total)
	}
	sat := ps.s.sat
	want := map[string]int64{
		"smt.cnf_vars":    int64(sat.NumVars()),
		"smt.cnf_clauses": int64(sat.clauses),
		"smt.learnts":     int64(sat.learnts),
	}
	for name, n := range want {
		if got := snap.Gauges[name]; got != n || n <= early.Gauges[name] {
			t.Errorf("%s = %d (after 50 queries %d), want %d and growing", name, got, early.Gauges[name], n)
		}
	}

	// A second solver adds its own CNF to the sums.
	b := NewBuilder()
	s2 := NewSolver(b)
	s2.SetObs(o)
	x := b.Var(8, "x")
	checkSat(t, s2, b.Eq(b.Mul(x, x), b.Const(8, 49)))
	sum := read()
	if got, want := sum.Gauges["smt.cnf_vars"], int64(sat.NumVars()+s2.sat.NumVars()); got != want {
		t.Errorf("smt.cnf_vars over two solvers = %d, want %d", got, want)
	}
	if got, want := sum.Gauges["smt.cnf_clauses"], int64(sat.clauses+s2.sat.clauses); got != want {
		t.Errorf("smt.cnf_clauses over two solvers = %d, want %d", got, want)
	}
}
