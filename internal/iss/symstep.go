package iss

import (
	"rvcte/internal/rv32"
)

// This file is the symbolic-step hook surface for the bounded model
// checker (internal/bmc): it steps a *set* of guarded symbolic states in
// lockstep with this ISS's semantics and needs (a) the same decoded
// instructions — through the predecoded block cache, not a second
// decoder — and (b) read access to the launch snapshot's private
// auxiliary state (protected zones, make_symbolic generations, pending
// peripheral work).

// DecodedAt returns the decoded instruction at pc through the
// predecoded basic-block cache, so a symbolic stepper shares the
// concolic engine's translations (and their invalidation discipline)
// instead of re-decoding per step. ok is false when pc cannot be
// fetched or decoded; the caller maps that to its bad-PC trap detector.
func (c *Core) DecodedAt(pc uint32) (rv32.Inst, bool) {
	if b := c.bb.lookup(c, pc); b != nil {
		return b.ops[0].inst, true
	}
	return rv32.Inst{}, false
}

// ZonesSnapshot copies the currently protected memory zones.
func (c *Core) ZonesSnapshot() []Zone {
	return append([]Zone(nil), c.zones...)
}

// SymCounterSnapshot copies the per-name make_symbolic generation
// counters, so an external stepper mints variables with exactly the
// names (and therefore identities — the builder deduplicates by name)
// this core would.
func (c *Core) SymCounterSnapshot() map[string]int {
	m := make(map[string]int, len(c.symCounters))
	for k, v := range c.symCounters {
		m[k] = v
	}
	return m
}

// PendingHostWork counts state an external symbolic stepper cannot
// reproduce: queued peripheral notifications and saved peripheral
// contexts. A stepper should refuse snapshots where this is non-zero.
func (c *Core) PendingHostWork() int {
	return len(c.notifications) + len(c.ctxStack)
}

// InRAM reports whether [addr, addr+n) falls inside guest RAM.
func (c *Core) InRAM(addr uint32, n int) bool { return c.inRAM(addr, n) }
