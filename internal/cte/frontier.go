package cte

import (
	"container/heap"
	"math/rand"

	"rvcte/internal/iss"
	"rvcte/internal/obs"
	"rvcte/internal/smt"
)

// item is one frontier entry. A pending child carries the trace
// condition it was emitted for, with its parent's path condition and
// input: the worker that claims it solves the condition into the
// child's Assignment (siblings share the parent's EPC slice and input
// map). A solved item — a root, or a child solved when the run stopped
// — has a nil tc.Cond and its Assignment set.
type item struct {
	Input
	tc   iss.TraceCond
	epc  []*smt.Expr    // the parent's path condition
	hint smt.Assignment // the parent's input: the query cache's slicing hint
}

// pending reports whether the item's trace condition is still unsolved.
func (it item) pending() bool { return it.tc.Cond != nil }

// frontier holds the queued items of one exploration run and yields
// them according to the configured strategy. BFS and DFS pop in O(1),
// Random swap-removes in O(1), and Coverage uses a container/heap
// priority queue (O(log n) per operation) ordered by score descending,
// then generation ascending, then insertion order — the same element the
// previous O(n) scan-and-splice selected, without the linear cost that
// multiplies once parallel workers raise queue pressure.
//
// A frontier is not internally synchronized; the parallel engine guards
// it with the shared run mutex.
type frontier struct {
	strategy Strategy
	rng      *rand.Rand // Random strategy only

	list []item // BFS (FIFO via head), DFS (LIFO), Random
	head int    // BFS consumption index into list

	pq  covQueue // Coverage
	seq int      // insertion counter for stable Coverage tie-breaks

	// forks counts the queued items holding a Fork checkpoint reference
	// (siblings at one site count once each but share one checkpoint);
	// forkLive (nil-safe) mirrors every change of it into the
	// cte.fork_live gauge.
	forks    int
	forkLive *obs.Gauge
}

func newFrontier(s Strategy, rng *rand.Rand) *frontier {
	return &frontier{strategy: s, rng: rng}
}

func (f *frontier) len() int {
	if f.strategy == Coverage {
		return len(f.pq)
	}
	return len(f.list) - f.head
}

// countFork adjusts the checkpoint count by d when it holds one.
func (f *frontier) countFork(it item, d int) {
	if it.Fork != nil {
		f.forks += d
		f.forkLive.Add(int64(d))
	}
}

func (f *frontier) push(it item) {
	f.countFork(it, 1)
	if f.strategy == Coverage {
		heap.Push(&f.pq, covItem{it: it, seq: f.seq})
		f.seq++
		return
	}
	f.list = append(f.list, it)
}

// pop yields the next item per the strategy; ok is false on an empty
// frontier. The guarded contract replaces the previous panics that an
// empty frontier produced for Random (rand.Intn(0)) and Coverage (heap
// pop on an empty heap) — callers race-prone enough to pop without a
// len() check (the parallel engine's claim loop) get a clean signal
// instead of a strategy-dependent crash.
func (f *frontier) pop() (item, bool) {
	it, ok := f.take()
	f.countFork(it, -1)
	return it, ok
}

// take removes and returns the next item per the strategy.
func (f *frontier) take() (item, bool) {
	if f.len() == 0 {
		return item{}, false
	}
	switch f.strategy {
	case Coverage:
		return heap.Pop(&f.pq).(covItem).it, true
	case DFS:
		it := f.list[len(f.list)-1]
		f.list[len(f.list)-1] = item{}
		f.list = f.list[:len(f.list)-1]
		return it, true
	case Random:
		i := f.rng.Intn(len(f.list))
		it := f.list[i]
		f.list[i] = f.list[len(f.list)-1]
		f.list[len(f.list)-1] = item{}
		f.list = f.list[:len(f.list)-1]
		return it, true
	default: // BFS
		it := f.list[f.head]
		f.list[f.head] = item{} // release the model for GC
		f.head++
		// Compact once the dead prefix dominates, keeping pops O(1)
		// amortized without unbounded slice growth.
		if f.head > 64 && f.head > len(f.list)/2 {
			f.list = append(f.list[:0:0], f.list[f.head:]...)
			f.head = 0
		}
		return it, true
	}
}

// covItem is one Coverage-strategy queue entry.
type covItem struct {
	it  item
	seq int
}

// covQueue implements heap.Interface: highest score first, ties broken
// by earliest generation, then earliest insertion.
type covQueue []covItem

func (q covQueue) Len() int { return len(q) }

func (q covQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.it.Score != b.it.Score {
		return a.it.Score > b.it.Score
	}
	if a.it.Gen != b.it.Gen {
		return a.it.Gen < b.it.Gen
	}
	return a.seq < b.seq
}

func (q covQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *covQueue) Push(x any) { *q = append(*q, x.(covItem)) }

func (q *covQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = covItem{}
	*q = old[:n-1]
	return it
}
