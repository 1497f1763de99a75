package cte

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

// semanticRecord keys one executed path by its observable behavior —
// model choices (and thus assignment keys) are solver-history-dependent,
// so cross-process comparisons use behavior, not raw inputs (same
// contract as the parallel-mode fork tests).
func semanticRecord(c *iss.Core) string {
	return fmt.Sprintf("exit=%d err=%v out=%q", c.ExitCode, c.Err, c.Output)
}

// TestImportInputRejectsHostileWidths: a wire variable of any width
// but 8 (the width of every symbolic input byte), or of a name the local
// builder holds at another width, is an error, not a panic, whether its
// name is new or contradicts the local variable of that name. A refused
// input leaves the local variables as they were and mints none of its
// variables, not even the valid ones before the refused one.
func TestImportInputRejectsHostileWidths(t *testing.T) {
	b := smt.NewBuilder()
	b.Var(8, "pkt[0]")
	b.Var(32, "word")
	for _, wv := range []WireVar{
		{Name: "z", Width: 0, Val: 1},
		{Name: "big", Width: 65, Val: 1},
		{Name: "pkt[0]", Width: 32, Val: 7},
		{Name: "in[0]", Width: 32, Val: 7},
		{Name: "word", Width: 8, Val: 7},
	} {
		in, err := ImportInput(b, WireInput{Vars: []WireVar{{Name: "ok", Width: 8, Val: 2}, wv}, Bound: 1})
		if err == nil {
			t.Errorf("%+v: imported as %+v, want an error", wv, in)
		}
	}
	if id, ok := b.VarID("pkt[0]"); !ok || b.VarWidth(id) != 8 {
		t.Fatal("a rejected input changed the local variable")
	}
	if id, ok := b.VarID("word"); !ok || b.VarWidth(id) != 32 {
		t.Fatal("a rejected input changed the local variable")
	}
	for _, name := range []string{"z", "in[0]", "ok"} {
		if _, ok := b.VarID(name); ok {
			t.Fatalf("a rejected width minted %q", name)
		}
	}
	if _, err := ImportInput(b, WireInput{Vars: []WireVar{{Name: "pkt[0]", Width: 8, Val: 9}}}); err != nil {
		t.Fatalf("a consistent input must import: %v", err)
	}
}

// TestWireInputRoundTrip: exporting a frontier input and importing it
// into a different builder preserves the assignment (by name), the
// bound and the dedup key, including zero-valued assignments.
func TestWireInputRoundTrip(t *testing.T) {
	b1 := smt.NewBuilder()
	// Create vars in one order on the exporting side...
	x := b1.Var(8, "x")
	y := b1.Var(8, "y")
	in := Input{Assignment: smt.Assignment{int(x.Val): 41, int(y.Val): 0}, Bound: 3, Gen: 2}

	wi := ExportInput(b1, in)
	if wi.Key() != InputKey(b1, in) {
		t.Fatalf("wire key %q != engine key %q", wi.Key(), InputKey(b1, in))
	}
	data, err := json.Marshal(wi)
	if err != nil {
		t.Fatal(err)
	}
	var back WireInput
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	// ... and in the opposite order (plus an extra var) on the importer.
	b2 := smt.NewBuilder()
	b2.Var(8, "unrelated")
	b2.Var(8, "y")
	got, err := ImportInput(b2, back)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bound != 3 || got.Gen != 2 {
		t.Fatalf("bound/gen lost: %+v", got)
	}
	if InputKey(b2, got) != wi.Key() {
		t.Fatalf("imported key %q != wire key %q", InputKey(b2, got), wi.Key())
	}
	if v := b2.Value(got.Assignment, "x"); v != 41 {
		t.Fatalf("x = %d want 41", v)
	}
	if id, ok := b2.VarID("y"); !ok || got.Assignment[id] != 0 {
		t.Fatalf("zero-valued y lost: %v", got.Assignment)
	}
}

// TestInputKeyRandom: over seeded random inputs of 1–200 byte variables
// the wire key of an exported input equals the engine key, renders the
// "<bound>|{name=value, ...}" format byte for byte, and survives import
// into a fresh builder that knows none of the variables.
func TestInputKeyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 200; trial++ {
		b := smt.NewBuilder()
		n := 1 + rng.Intn(200)
		in := Input{Assignment: smt.Assignment{}, Bound: rng.Intn(50) - 1, Gen: rng.Intn(5)}
		want := map[string]uint64{}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("pkt[%d]", rng.Intn(4*n))
			if rng.Intn(4) == 0 {
				name = fmt.Sprintf("s%d.state", rng.Intn(4*n))
			}
			if _, dup := b.VarID(name); dup {
				continue
			}
			v := b.Var(8, name)
			if rng.Intn(8) == 0 {
				continue // known to the builder, absent from the input
			}
			val := rng.Uint64() >> 56
			in.Assignment[int(v.Val)] = val
			want[name] = val
		}

		names := make([]string, 0, len(want))
		for name := range want {
			names = append(names, name)
		}
		sort.Strings(names)
		ref := fmt.Sprintf("%d|{", in.Bound)
		for i, name := range names {
			if i > 0 {
				ref += ", "
			}
			ref += fmt.Sprintf("%s=%d", name, want[name])
		}
		ref += "}"

		key := InputKey(b, in)
		if key != ref {
			t.Fatalf("trial %d: InputKey = %q\nwant %q", trial, key, ref)
		}
		wi := ExportInput(b, in)
		if got := wi.Key(); got != key {
			t.Fatalf("trial %d: wire key %q != engine key %q", trial, got, key)
		}
		fresh := smt.NewBuilder()
		back, err := ImportInput(fresh, wi)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := InputKey(fresh, back); got != key {
			t.Fatalf("trial %d: imported key %q != %q", trial, got, key)
		}
	}
}

// TestRootsBatchExecution is the campaign worker contract: with
// Options.Roots + MaxPaths == len(Roots) + BFS, exactly the leased
// inputs execute and their children land unexplored in Report.Frontier.
// Driving the exported frontier to exhaustion in a *fresh* process
// (builder + snapshot) reaches the same semantic path set as one
// uninterrupted exploration, at every lease worker count.
func TestRootsBatchExecution(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testRootsBatchExecution(t, workers)
		})
	}
}

func testRootsBatchExecution(t *testing.T, workers int) {
	// Uninterrupted baseline.
	var want []string
	base := NewSession(snapshot(t, counterSrc), Config{Budget: Budget{MaxPaths: 100}})
	base.OnPath = func(_ int, c *iss.Core) { want = append(want, semanticRecord(c)) }
	baseRep := base.Run(context.Background())
	if !baseRep.Exhausted {
		t.Fatal("baseline not exhausted")
	}

	// Batched exploration: carry the frontier across simulated process
	// boundaries in wire form, executing at most 3 inputs per lease.
	root := WireInput{} // empty assignment, bound 0
	pending := []WireInput{root}
	seen := map[string]bool{root.Key(): true} // every key ever enqueued
	var got []string
	for rounds := 0; len(pending) > 0; rounds++ {
		if rounds > 100 {
			t.Fatal("no convergence")
		}
		batch := pending
		if len(batch) > 3 {
			batch = batch[:3]
		}
		pending = pending[len(batch):]

		snap := snapshot(t, counterSrc) // fresh process state
		roots := make([]Input, len(batch))
		for i, wi := range batch {
			in, err := ImportInput(snap.B, wi)
			if err != nil {
				t.Fatal(err)
			}
			roots[i] = in
		}
		eng := NewSession(snap, Config{Workers: workers, Budget: Budget{MaxPaths: len(roots)},
			Explore: ExploreConfig{Roots: roots, ExportFrontier: true}})
		eng.OnPath = func(_ int, c *iss.Core) { got = append(got, semanticRecord(c)) }
		rep := eng.Run(context.Background())
		if rep.Paths != len(roots) {
			t.Fatalf("lease executed %d paths want %d", rep.Paths, len(roots))
		}
		for _, ch := range rep.Frontier {
			wi := ExportInput(snap.B, ch)
			if !seen[wi.Key()] { // coordinator-side dedup
				seen[wi.Key()] = true
				pending = append(pending, wi)
			}
		}
	}

	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("path counts: batched %d baseline %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path records diverge:\n batched:  %s\n baseline: %s", got[i], want[i])
		}
	}
}

// bitstormRoots returns the 28 pending inputs left after six BFS paths of
// bitstorm, exported and re-imported into a fresh snapshot's builder the
// way a campaign lease carries them.
func bitstormRoots(t *testing.T) (*iss.Core, []Input) {
	t.Helper()
	src := snapshot(t, bitstormSrc)
	rep := NewSession(src, Config{Budget: Budget{MaxPaths: 6},
		Explore: ExploreConfig{ExportFrontier: true}}).Run(context.Background())
	if len(rep.Frontier) != 28 {
		t.Fatalf("frontier after 6 paths: %d inputs want 28", len(rep.Frontier))
	}
	snap := snapshot(t, bitstormSrc)
	roots := make([]Input, len(rep.Frontier))
	for i, in := range rep.Frontier {
		imp, err := ImportInput(snap.B, ExportInput(src.B, in))
		if err != nil {
			t.Fatal(err)
		}
		roots[i] = imp
	}
	return snap, roots
}

// TestFrontierKeepsInFlightChildren: when the path budget stops a
// multi-worker lease, the paths still in flight merge their children
// into the exported frontier, so executed paths plus frontier inputs
// match the one-worker lease on every run.
func TestFrontierKeepsInFlightChildren(t *testing.T) {
	lease := func(workers int) int {
		snap, roots := bitstormRoots(t)
		rep := NewSession(snap, Config{Workers: workers, Budget: Budget{MaxPaths: len(roots)},
			Explore: ExploreConfig{Roots: roots, ExportFrontier: true}}).Run(context.Background())
		if rep.Paths != len(roots) {
			t.Fatalf("workers=%d: lease executed %d paths want %d", workers, rep.Paths, len(roots))
		}
		return rep.Paths + len(rep.Frontier)
	}
	want := lease(1)
	for i := 0; i < 50; i++ {
		if got := lease(2); got != want {
			t.Fatalf("run %d: workers=2 paths+frontier %d, workers=1 %d", i, got, want)
		}
	}
}

// TestStopKeepsSolvedChildren: a child solved by one worker after
// another worker's claim used up the path budget goes back to the
// frontier solved, so every SAT, non-duplicate child of a multi-worker
// run is either executed or exported.
func TestStopKeepsSolvedChildren(t *testing.T) {
	for i := 0; i < 40; i++ {
		sess := NewSession(snapshot(t, bitstormSrc), Config{Workers: 4, Budget: Budget{MaxPaths: 10 + i%7},
			Explore: ExploreConfig{ExportFrontier: true}})
		eng := newEngine(sess.snap, sess.cfg)
		x := eng.newPool(context.Background())
		x.explore()
		rep := x.finish()
		if rep.Stopped != "path-budget" {
			t.Fatalf("run %d: stopped=%s, want path-budget", i, rep.Stopped)
		}
		// The default root is not in the seen set; every other executed
		// input and every exported one is.
		paths := int(eng.obsPaths.Value())
		if got := paths - 1 + len(rep.Frontier); got != len(x.seen) {
			t.Fatalf("run %d: %d children executed or exported, %d passed dedup", i, got, len(x.seen))
		}
		if tcs, solved := eng.obsTCs.Value(), eng.tcs.sat.Value()+eng.tcs.unsat.Value()+eng.tcs.unknown.Value(); tcs != solved {
			t.Fatalf("run %d: %d trace conditions emitted, %d solved by claim or export", i, tcs, solved)
		}
	}
}
