package cte

import (
	"container/heap"
	"math/rand"

	"rvcte/internal/obs"
)

// frontier holds the pending inputs of one exploration run and yields
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

	list []Input // BFS (FIFO via head), DFS (LIFO), Random
	head int     // BFS consumption index into list

	pq  covQueue // Coverage
	seq int      // insertion counter for stable Coverage tie-breaks

	// forks counts the queued inputs holding a Fork checkpoint reference
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

// countFork adjusts the checkpoint count by d when in holds one.
func (f *frontier) countFork(in Input, d int) {
	if in.Fork != nil {
		f.forks += d
		f.forkLive.Add(int64(d))
	}
}

func (f *frontier) push(in Input) {
	f.countFork(in, 1)
	if f.strategy == Coverage {
		heap.Push(&f.pq, covItem{in: in, seq: f.seq})
		f.seq++
		return
	}
	f.list = append(f.list, in)
}

// pop yields the next input per the strategy; ok is false on an empty
// frontier. The guarded contract replaces the previous panics that an
// empty frontier produced for Random (rand.Intn(0)) and Coverage (heap
// pop on an empty heap) — callers race-prone enough to pop without a
// len() check (the parallel engine's claim loop) get a clean signal
// instead of a strategy-dependent crash.
func (f *frontier) pop() (Input, bool) {
	in, ok := f.take()
	f.countFork(in, -1)
	return in, ok
}

// take removes and returns the next input per the strategy.
func (f *frontier) take() (Input, bool) {
	if f.len() == 0 {
		return Input{}, false
	}
	switch f.strategy {
	case Coverage:
		return heap.Pop(&f.pq).(covItem).in, true
	case DFS:
		in := f.list[len(f.list)-1]
		f.list[len(f.list)-1] = Input{}
		f.list = f.list[:len(f.list)-1]
		return in, true
	case Random:
		i := f.rng.Intn(len(f.list))
		in := f.list[i]
		f.list[i] = f.list[len(f.list)-1]
		f.list[len(f.list)-1] = Input{}
		f.list = f.list[:len(f.list)-1]
		return in, true
	default: // BFS
		in := f.list[f.head]
		f.list[f.head] = Input{} // release the model for GC
		f.head++
		// Compact once the dead prefix dominates, keeping pops O(1)
		// amortized without unbounded slice growth.
		if f.head > 64 && f.head > len(f.list)/2 {
			f.list = append(f.list[:0:0], f.list[f.head:]...)
			f.head = 0
		}
		return in, true
	}
}

// covItem is one Coverage-strategy queue entry.
type covItem struct {
	in  Input
	seq int
}

// covQueue implements heap.Interface: highest score first, ties broken
// by earliest generation, then earliest insertion.
type covQueue []covItem

func (q covQueue) Len() int { return len(q) }

func (q covQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.in.Score != b.in.Score {
		return a.in.Score > b.in.Score
	}
	if a.in.Gen != b.in.Gen {
		return a.in.Gen < b.in.Gen
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
