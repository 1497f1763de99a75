package qcache

import (
	"sync"

	"rvcte/internal/smt"
)

// Independence slicing (the "independent constraint sets" optimization of
// EXE/KLEE): two conditions belong to the same group iff they share a
// free variable, transitively. A conjunction is satisfiable iff every
// group is, and per-group models merge into a whole-set model because the
// groups are variable-disjoint by construction.

// slice partitions conds into connectivity groups of condition indices
// via union-find over the shared variables. Group order is by first
// member; the members of each group keep their original order.
func (c *Cache) slice(conds []*smt.Expr) [][]int {
	parent := make([]int, len(conds))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	// owner maps a variable id to the first condition index using it.
	owner := getMarks()
	defer putMarks(owner)
	for i, e := range conds {
		for _, v := range c.varsOf(e) {
			if j, ok := owner.get(v); ok {
				union(i, j)
			} else {
				owner.set(v, i)
			}
		}
	}

	var out [][]int
	group := make([]int, len(conds)) // root -> 1 + index into out
	for i := range conds {
		r := find(i)
		if group[r] == 0 {
			out = append(out, nil)
			group[r] = len(out)
		}
		out[group[r]-1] = append(out[group[r]-1], i)
	}
	return out
}

// marks is a table of small non-negative integers (variable ids, entry
// sequence numbers) to int32 values, reset in O(1): a slot is present
// iff its stamp equals the current epoch.
type marks struct {
	stamp []uint32
	val   []int32
	epoch uint32
}

var marksPool = sync.Pool{New: func() any { return new(marks) }}

// getMarks returns an empty table from the pool.
func getMarks() *marks {
	m := marksPool.Get().(*marks)
	m.reset()
	return m
}

// reset empties the table. When the epoch counter wraps, the stamps are
// zeroed once, so no stale stamp can equal a reused epoch.
func (m *marks) reset() {
	m.epoch++
	if m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
}

func putMarks(m *marks) { marksPool.Put(m) }

func (m *marks) get(i int) (int, bool) {
	if i < len(m.stamp) && m.stamp[i] == m.epoch {
		return int(m.val[i]), true
	}
	return 0, false
}

func (m *marks) set(i, v int) {
	if i >= len(m.stamp) {
		n := max(i+1, 2*len(m.stamp), 64)
		m.stamp = append(m.stamp, make([]uint32, n-len(m.stamp))...)
		m.val = append(m.val, make([]int32, n-len(m.val))...)
	}
	m.stamp[i] = m.epoch
	m.val[i] = int32(v)
}

// add marks i and reports whether it was unmarked.
func (m *marks) add(i int) bool {
	if _, ok := m.get(i); ok {
		return false
	}
	m.set(i, 0)
	return true
}
