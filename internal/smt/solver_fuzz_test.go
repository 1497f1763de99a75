package smt

import (
	"fmt"
	"testing"
)

// Bounds of the expression DAGs FuzzSolverAgainstEval decodes: small
// enough that brute force over every assignment (at most 3 variables of
// 4 bits, 4096 assignments) stays cheap.
const (
	fuzzMaxNodes = 24
	fuzzMaxConds = 4
)

// decodeDAG decodes fuzz input into an expression DAG. Byte 0 picks the
// term width (1–4 bits), byte 1 the number of variables (1–3). Each
// following 3-byte group (op, x, y) adds one node over the terms built
// so far: an arithmetic, bitwise or shift term, a constant, an ite, or
// a comparison that becomes a condition. The last fuzzMaxConds
// conditions are returned; with none, the last term must equal zero.
func decodeDAG(b *Builder, data []byte) (vars, conds []*Expr) {
	if len(data) < 2 {
		return nil, nil
	}
	w := 1 + data[0]%4
	for i := 0; i < 1+int(data[1]%3); i++ {
		vars = append(vars, b.Var(w, fmt.Sprintf("v%d", i)))
	}
	terms := append([]*Expr(nil), vars...)
	data = data[2:]
	for n := 0; len(data) >= 3 && n < fuzzMaxNodes; n++ {
		op, xb, yb := data[0], data[1], data[2]
		data = data[3:]
		x, y := terms[int(xb)%len(terms)], terms[int(yb)%len(terms)]
		var t *Expr
		switch op % 20 {
		case 0:
			t = b.Add(x, y)
		case 1:
			t = b.Sub(x, y)
		case 2:
			t = b.Mul(x, y)
		case 3:
			t = b.UDiv(x, y)
		case 4:
			t = b.URem(x, y)
		case 5:
			t = b.And(x, y)
		case 6:
			t = b.Or(x, y)
		case 7:
			t = b.Xor(x, y)
		case 8:
			t = b.Shl(x, y)
		case 9:
			t = b.LShr(x, y)
		case 10:
			t = b.AShr(x, y)
		case 11:
			t = b.Not(x)
		case 12:
			t = b.Neg(x)
		case 13:
			t = b.Const(w, uint64(yb))
		case 14:
			t = b.Ite(b.Ult(x, y), y, x)
		case 15:
			conds = append(conds, b.Eq(x, y))
		case 16:
			conds = append(conds, b.Ult(x, y))
		case 17:
			conds = append(conds, b.Ule(x, y))
		case 18:
			conds = append(conds, b.Slt(x, y))
		default:
			conds = append(conds, b.Ne(x, y))
		}
		if t != nil {
			terms = append(terms, t)
		}
	}
	if len(conds) > fuzzMaxConds {
		conds = conds[len(conds)-fuzzMaxConds:]
	}
	if len(conds) == 0 {
		conds = []*Expr{b.Eq(terms[len(terms)-1], b.Const(w, 0))}
	}
	return vars, conds
}

// bruteWitness enumerates every assignment of vars (all of one width)
// and returns one under which every condition evaluates to 1.
func bruteWitness(vars, conds []*Expr) (Assignment, bool) {
	w := uint(vars[0].Width)
	a := Assignment{}
	for code := 0; code < 1<<(w*uint(len(vars))); code++ {
		for i, v := range vars {
			a[int(v.Val)] = uint64(code>>(w*uint(i))) & mask(uint8(w))
		}
		ok := true
		for _, c := range conds {
			if Eval(c, a) != 1 {
				ok = false
				break
			}
		}
		if ok {
			return a, true
		}
	}
	return nil, false
}

// FuzzSolverAgainstEval checks the bit-blaster and CDCL core against
// the concrete evaluator on decoded expression DAGs: a sat model must
// make every condition evaluate to 1, and on unsat brute force must find
// no witness. Each input is queried twice on one solver, the second
// time with its first condition negated, so learnt clauses carry over
// between queries as in exploration. The seed corpus is in
// testdata/fuzz/FuzzSolverAgainstEval; `make fuzz-native` fuzzes it.
func FuzzSolverAgainstEval(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewBuilder()
		vars, conds := decodeDAG(b, data)
		if conds == nil {
			return
		}
		s := NewSolver(b)
		negated := append([]*Expr{b.Not(conds[0])}, conds[1:]...)
		for _, q := range [][]*Expr{conds, negated} {
			sat, model, unknown := s.Check(q...)
			switch {
			case unknown:
				t.Fatalf("unbudgeted query returned unknown: %v", q)
			case sat:
				for _, c := range q {
					if Eval(c, model) != 1 {
						t.Fatalf("model %v does not satisfy %v", model, c)
					}
				}
			default:
				if w, ok := bruteWitness(vars, q); ok {
					t.Fatalf("unsat, but %v satisfies %v", w, q)
				}
			}
		}
	})
}
