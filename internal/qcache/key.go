package qcache

import (
	"slices"
	"sort"

	"rvcte/internal/smt"
)

// Structural hashing of the interned expression DAG. Every *smt.Expr is
// hashed exactly once per cache (the per-node memo exploits interning:
// pointer identity implies structural identity within one Builder, and
// the memo is a slice indexed by the node's dense id), so hashing a
// constraint set is O(new nodes), amortized O(roots) for the concolic
// pattern of a long shared path-condition prefix.
//
// The hash is a pure function of the expression *structure* — kind,
// width, operand order, constant values — and, for variables, of the
// variable *name* rather than its builder-assigned id. Names are stable
// across runs of the same guest binary while ids depend on creation
// order, so name-based hashing is what makes persisted cache entries
// (see persist.go) land on the same keys in a fresh process.

// mix64 is a splitmix64-style finalizer step used as the hash combiner.
// The constants are fixed forever: persisted cache files depend on them.
func mix64(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// hashString hashes a variable name (FNV-1a).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hashExpr returns the structural hash of e, memoized per node.
func (c *Cache) hashExpr(e *smt.Expr) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hashLocked(e)
}

// nodeMemo is the cache's per-node memo, indexed by smt.Expr.ID. The
// hashed and varsOK flags mark presence explicitly: no hash value is
// reserved as "absent", so every structural hash stays a legal key.
type nodeMemo struct {
	hash   uint64
	vars   []int
	hashed bool
	varsOK bool
}

// node returns the memo slot of id, growing the table as needed; the
// caller must hold c.mu. The pointer is valid until the next growth.
func (c *Cache) node(id int) *nodeMemo {
	if id >= len(c.nodes) {
		c.nodes = append(c.nodes, make([]nodeMemo, id+1-len(c.nodes))...)
	}
	return &c.nodes[id]
}

func (c *Cache) hashLocked(e *smt.Expr) uint64 {
	if id := e.ID(); id < len(c.nodes) && c.nodes[id].hashed {
		return c.nodes[id].hash
	}
	h := uint64(0x51ca7e00)
	h = mix64(h, uint64(e.Kind))
	h = mix64(h, uint64(e.Width))
	if e.Kind == smt.KVar {
		h = mix64(h, hashString(c.b.VarName(int(e.Val))))
	} else {
		h = mix64(h, e.Val)
	}
	for _, k := range []*smt.Expr{e.K0, e.K1, e.K2} {
		if k == nil {
			break
		}
		h = mix64(h, c.hashLocked(k))
	}
	n := c.node(e.ID())
	n.hash, n.hashed = h, true
	return h
}

// hashSet hashes every condition and returns the sorted, deduplicated
// element hashes — the canonical representation of the conjunction.
func (c *Cache) hashSet(conds []*smt.Expr) []uint64 {
	elems := make([]uint64, 0, len(conds))
	c.mu.Lock()
	for _, e := range conds {
		elems = append(elems, c.hashLocked(e))
	}
	c.mu.Unlock()
	slices.Sort(elems)
	// Deduplicate: conjunction is idempotent, so {a,a,b} keys as {a,b}.
	out := elems[:0]
	for i, h := range elems {
		if i == 0 || h != elems[i-1] {
			out = append(out, h)
		}
	}
	return out
}

// setKey folds sorted element hashes into the canonical conjunction key.
func setKey(elems []uint64) uint64 {
	h := uint64(0xc0417e57) ^ uint64(len(elems))
	for _, e := range elems {
		h = mix64(h, e)
	}
	return h
}

// varsOf returns the sorted distinct variable ids of e, memoized per
// root. Roots repeat heavily across queries (the same trace condition is
// re-checked under ever-longer prefixes), so the memo keeps independence
// slicing cheap.
func (c *Cache) varsOf(e *smt.Expr) []int {
	c.mu.Lock()
	if id := e.ID(); id < len(c.nodes) && c.nodes[id].varsOK {
		v := c.nodes[id].vars
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	// Collect outside the lock: Vars can walk a large DAG.
	ids := e.Vars(nil, map[*smt.Expr]bool{})
	sort.Ints(ids)
	c.mu.Lock()
	n := c.node(e.ID())
	n.vars, n.varsOK = ids, true
	c.mu.Unlock()
	return ids
}
