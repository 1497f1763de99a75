package cte

import (
	"math/rand"
	"testing"
)

// oldPick is the previous O(n) scan-and-splice Coverage selection,
// kept as the ordering oracle for the heap-backed frontier.
func oldPick(queue *[]Input) Input {
	q := *queue
	best := 0
	for i := 1; i < len(q); i++ {
		if q[i].Score > q[best].Score ||
			(q[i].Score == q[best].Score && q[i].Gen < q[best].Gen) {
			best = i
		}
	}
	in := q[best]
	*queue = append(q[:best], q[best+1:]...)
	return in
}

func TestFrontierCoverageMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := newFrontier(Coverage, nil)
	var ref []Input
	push := func(in Input) {
		f.push(item{Input: in})
		ref = append(ref, in)
	}
	for i := 0; i < 50; i++ {
		push(Input{Score: float64(rng.Intn(5)), Gen: rng.Intn(4), Bound: i})
	}
	// Interleave pops and pushes to exercise heap re-ordering.
	for i := 0; i < 80; i++ {
		if f.len() == 0 {
			break
		}
		got, ok := f.pop()
		if !ok {
			t.Fatalf("pop %d: empty", i)
		}
		want := oldPick(&ref)
		if got.Score != want.Score || got.Gen != want.Gen || got.Bound != want.Bound {
			t.Fatalf("pop %d: got {score %v gen %d bound %d} want {score %v gen %d bound %d}",
				i, got.Score, got.Gen, got.Bound, want.Score, want.Gen, want.Bound)
		}
		if i%3 == 0 {
			push(Input{Score: float64(rng.Intn(5)), Gen: rng.Intn(4), Bound: 100 + i})
		}
	}
	if f.len() != len(ref) {
		t.Fatalf("length drift: frontier %d oracle %d", f.len(), len(ref))
	}
}

func TestFrontierBFSOrderAndCompaction(t *testing.T) {
	f := newFrontier(BFS, nil)
	const n = 300 // enough to trigger the dead-prefix compaction
	for i := 0; i < n; i++ {
		f.push(item{Input: Input{Bound: i}})
	}
	for i := 0; i < n; i++ {
		if got, ok := f.pop(); !ok || got.Bound != i {
			t.Fatalf("pop %d: got bound %d ok=%v", i, got.Bound, ok)
		}
	}
	if f.len() != 0 {
		t.Fatalf("leftover %d", f.len())
	}
}

// TestFrontierEmptyPop is the regression test for the empty-frontier
// panic: pop on an empty frontier used to crash for Random
// (rand.Intn(0)) and Coverage (heap underflow). Every strategy must
// report emptiness through the (item, bool) contract instead — drained
// frontiers are routine in the worker pool.
func TestFrontierEmptyPop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		s    Strategy
	}{
		{"bfs", BFS}, {"dfs", DFS}, {"random", Random}, {"coverage", Coverage},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFrontier(tc.s, rng)
			if _, ok := f.pop(); ok {
				t.Fatal("pop on never-used frontier reported an input")
			}
			// Fill, drain completely, then pop again: the drained state
			// must behave like the fresh one. 100 > 64 crosses the BFS
			// dead-prefix compaction boundary (head > 64), the spot where
			// a stale head index would fault or return a zero Input.
			const n = 100
			for i := 0; i < n; i++ {
				f.push(item{Input: Input{Bound: i}})
			}
			seen := make(map[int]bool)
			for i := 0; i < n; i++ {
				in, ok := f.pop()
				if !ok {
					t.Fatalf("pop %d: empty with %d inputs outstanding", i, n-i)
				}
				if seen[in.Bound] {
					t.Fatalf("pop %d: bound %d returned twice", i, in.Bound)
				}
				seen[in.Bound] = true
			}
			if _, ok := f.pop(); ok {
				t.Fatal("pop on drained frontier reported an input")
			}
			if f.len() != 0 {
				t.Fatalf("drained frontier len %d", f.len())
			}
			// And it must still be usable after draining.
			f.push(item{Input: Input{Bound: 7}})
			if in, ok := f.pop(); !ok || in.Bound != 7 {
				t.Fatalf("post-drain push/pop: got %+v ok=%v", in, ok)
			}
		})
	}
}

func TestFrontierDFSOrder(t *testing.T) {
	f := newFrontier(DFS, nil)
	for i := 0; i < 5; i++ {
		f.push(item{Input: Input{Bound: i}})
	}
	for i := 4; i >= 0; i-- {
		if got, ok := f.pop(); !ok || got.Bound != i {
			t.Fatalf("dfs pop: got bound %d want %d ok=%v", got.Bound, i, ok)
		}
	}
}
