package qcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rvcte/internal/smt"
)

// syncEnv builds one "worker": its own builder and cache over a shared
// variable vocabulary, with nQueries distinct solved entries.
func syncEnv(t *testing.T, salt, nQueries int) *Cache {
	t.Helper()
	b := smt.NewBuilder()
	c := New(b, Options{})
	v := b.Var(16, "x")
	s := smt.NewSolver(b)
	for i := 0; i < nQueries; i++ {
		c.Check(s, []*smt.Expr{b.Eq(v, b.Const(16, uint64(salt*100+i)))}, nil)
	}
	return c
}

// TestExportImportSync is the campaign sync contract: a worker's new
// entries exported and imported by a peer answer the peer's identical
// queries without any solver call, and re-importing is idempotent.
func TestExportImportSync(t *testing.T) {
	producer := syncEnv(t, 1, 5)
	ents := producer.ExportEntries()
	if len(ents) != 5 {
		t.Fatalf("exported %d entries want 5", len(ents))
	}

	b := smt.NewBuilder()
	peer := New(b, Options{})
	if n := peer.ImportEntries(ents); n != 5 {
		t.Fatalf("imported %d want 5", n)
	}
	if n := peer.ImportEntries(ents); n != 0 {
		t.Fatalf("re-import must be idempotent, merged %d", n)
	}
	v := b.Var(16, "x")
	s := smt.NewSolver(b)
	sat, m, _ := peer.Check(s, []*smt.Expr{b.Eq(v, b.Const(16, 103))}, nil)
	if !sat || m == nil {
		t.Fatalf("peer miss on synced entry: sat=%v m=%v", sat, m)
	}
	if s.Stats().Queries != 0 {
		t.Errorf("synced entry must be served without solving (ran %d queries)", s.Stats().Queries)
	}
	// Malformed wire entries (a crashed peer, a truncated merge) are
	// skipped, never inserted.
	if n := peer.ImportEntries([]WireEntry{{Key: 99}, {Key: 98, Elems: []uint64{1}, Sat: true}}); n != 0 {
		t.Errorf("malformed entries merged: %d", n)
	}
}

// TestConcurrentSaveCrashSafe: many goroutines saving different caches
// over the same shared path — the mid-sync kill scenario of the
// campaign's shared cache directory — must never leave a torn,
// interleaved or partially visible file: every observable state of path
// is one complete, loadable JSONL snapshot.
func TestConcurrentSaveCrashSafe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shared.qcache")

	caches := make([]*Cache, 4)
	for i := range caches {
		caches[i] = syncEnv(t, i+1, 8)
	}
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		for _, c := range caches {
			wg.Add(1)
			go func(c *Cache) {
				defer wg.Done()
				if err := c.Save(path); err != nil {
					t.Errorf("save: %v", err)
				}
				// Every concurrent observation of the file must load
				// cleanly into a fresh cache.
				fresh := New(smt.NewBuilder(), Options{})
				if err := fresh.Load(path); err != nil && !os.IsNotExist(err) {
					t.Errorf("torn file observed: %v", err)
				}
			}(c)
		}
	}
	wg.Wait()

	// The final state is exactly one writer's complete snapshot.
	final := New(smt.NewBuilder(), Options{})
	if err := final.Load(path); err != nil {
		t.Fatalf("final load: %v", err)
	}
	if got := final.Stats().Loaded; got != 8 {
		t.Errorf("final file holds %d entries, want one complete 8-entry snapshot", got)
	}
	// No temp litter left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// TestSaveDeterministic: the same entry set serializes to identical
// bytes regardless of insertion order (the spool diffing guarantee).
func TestSaveDeterministic(t *testing.T) {
	dir := t.TempDir()
	mk := func(order []int) string {
		b := smt.NewBuilder()
		c := New(b, Options{})
		v := b.Var(16, "x")
		s := smt.NewSolver(b)
		for _, i := range order {
			c.Check(s, []*smt.Expr{b.Eq(v, b.Const(16, uint64(i)))}, nil)
		}
		p := filepath.Join(dir, fmt.Sprintf("o%v.qcache", order[0]))
		if err := c.Save(p); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if mk([]int{1, 2, 3}) != mk([]int{3, 1, 2}) {
		t.Error("save is not deterministic across insertion orders")
	}
}
