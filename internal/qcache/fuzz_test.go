package qcache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rvcte/internal/smt"
)

// fuzzQuery is one query of the fixed workload FuzzCacheLoad replays
// against a cache warmed from fuzz input; hint, when set, satisfies every
// condition but the last, as the engine's incumbent input does.
type fuzzQuery struct {
	conds []*smt.Expr
	hint  smt.Assignment
}

// cacheFuzzQueries builds the replayed workload over three named 8-bit
// variables: exact-key candidates, a superset whose model a subset
// reuses, a sliced query with a hint, and unsat sets. The seed corpus in
// testdata/fuzz/FuzzCacheLoad is this workload's saved cache, intact,
// truncated and corrupted.
func cacheFuzzQueries(b *smt.Builder) []fuzzQuery {
	a, x, c := b.Var(8, "a"), b.Var(8, "b"), b.Var(8, "c")
	k := func(v uint64) *smt.Expr { return b.Const(8, v) }
	return []fuzzQuery{
		{conds: []*smt.Expr{b.Ult(a, k(10)), b.Eq(x, k(3))}},
		{conds: []*smt.Expr{b.Ult(a, k(10)), b.Eq(x, k(3)), b.Ugt(c, k(200))}},
		{conds: []*smt.Expr{b.Eq(x, k(3))}},
		{conds: []*smt.Expr{b.Eq(b.Add(a, x), k(7)), b.Ult(c, k(4))}},
		{conds: []*smt.Expr{b.Eq(a, k(1)), b.Ult(x, k(9)), b.Eq(c, k(2))}, hint: smt.Assignment{0: 1, 1: 8, 2: 7}},
		{conds: []*smt.Expr{b.Ult(a, k(5)), b.Ugt(a, k(10))}},
		{conds: []*smt.Expr{b.Ult(a, k(5)), b.Ugt(a, k(10)), b.Eq(x, k(3))}},
	}
}

// FuzzCacheLoad feeds arbitrary bytes to the cache-file loader, as a
// file to Load and, line by line, as decoded entries to ImportEntries.
// Both must load or return an error, never panic, and a cache warmed from
// the input must still never serve a sat model that fails ValidateModel.
func FuzzCacheLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cache.jsonl")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		b := smt.NewBuilder()
		queries := cacheFuzzQueries(b)

		loaded := New(b, Options{})
		_ = loaded.Load(path) // an error is an acceptable answer; a panic is not

		var ents []WireEntry
		for _, line := range bytes.Split(data, []byte("\n")) {
			var w WireEntry
			if json.Unmarshal(line, &w) == nil {
				ents = append(ents, w)
			}
		}
		imported := New(b, Options{})
		imported.ImportEntries(ents)

		for _, c := range []*Cache{loaded, imported} {
			c.OnAnswer = func(conds []*smt.Expr, sat bool, m smt.Assignment, _ bool) {
				if sat && !ValidateModel(conds, m) {
					t.Errorf("served a sat model that fails validation: %v", m)
				}
			}
			s := smt.NewSolver(b)
			for _, q := range queries {
				c.Check(s, q.conds, q.hint)
			}
			for _, w := range c.ExportEntries() {
				if !w.Valid() {
					t.Errorf("exported a malformed entry: %+v", w)
				}
			}
		}
	})
}
