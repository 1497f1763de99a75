package iss

import (
	"rvcte/internal/smt"
)

// State forking (DESIGN.md "State forking"): instead of re-executing a
// whole path prefix from the frozen exploration snapshot for every new
// solver model, the engine checkpoints the live VP at each divergence
// point — the instruction that emitted a trace condition — and resumes
// a copy-on-write clone of that checkpoint with the new model
// substituted into the symbolic shadow state. The suffix after the
// divergence is the only part that executes again. The engine queues a
// child with a reference to its site's Checkpoint and resumes it only
// when a worker claims the child.
//
// A checkpoint must look exactly like the state a restart run would be
// in when it reaches the divergence instruction under the new model:
//
//   - TCs fire mid-instruction (after operand reads, before any
//     architectural write), so the capture clones the live core and
//     rewinds the per-instruction append-only state (EPC entries, site
//     counter, trace-ring entry) to the values recorded at the start of
//     the instruction; the whole instruction re-executes on resume.
//   - The concrete halves of all concolic state (registers, saved
//     contexts, memory bytes, console output) were
//     computed under the parent's input assignment; ApplyModel
//     re-evaluates every symbolic shadow under the child's model (with
//     the same unassigned-variables-are-zero completion the restart
//     path uses), which makes the resumed state bit-identical to the
//     restart run at the same point.
//   - Coverage is the one exception: a resumed core collects only the
//     PCs of its suffix. The engine merges a path's coverage into the
//     run's total before it queues that path's children, so the prefix
//     PCs are already counted when a child runs, and a child's count of
//     new PCs is the same as a restart run's.
//
// Capture is skipped (and the engine falls back to a snapshot restart
// for that child) under an ExecHook: the hook's external state cannot
// be cloned.

// emitTC appends a trace condition and, under CaptureForks, stashes a
// divergence checkpoint for its site. All TC emission funnels through
// here.
func (c *Core) emitTC(tc TraceCond) {
	c.Trace = append(c.Trace, tc)
	if c.CaptureForks {
		c.captureFork(tc.SiteIdx)
	}
}

// recordPreState snapshots the per-instruction rewind state. Called at
// the top of every instruction (after boundary event delivery) while
// CaptureForks is set.
func (c *Core) recordPreState() {
	c.preEPCLen = len(c.EPC)
	c.preSite = c.siteCount
	c.preRingLen = len(c.traceRing)
	c.preRingNext = c.traceNext
}

// Checkpoint is the VP captured at one divergence site, rewound to the
// start of the divergence instruction. It is read-only once captured:
// it never executes, and every SAT child at its site resumes its own
// clone of it (Resume), so siblings share one checkpoint and a queued
// child costs a pointer instead of a machine.
type Checkpoint struct {
	core *Core
}

// captureFork stashes a checkpoint of the VP rewound to the start of
// the current instruction, keyed by TC site. Ladders emit several TCs
// at one site; the first capture wins (they share the divergence
// instruction).
func (c *Core) captureFork(site int) {
	if c.ExecHook != nil {
		return
	}
	if c.InstrCount < c.ForkMinPrefix {
		return
	}
	if c.forkPoints == nil {
		c.forkPoints = make(map[int]*Checkpoint)
	} else if _, ok := c.forkPoints[site]; ok {
		return
	}
	// The checkpoint copies no per-path input state: the resuming child
	// installs its own Input (ApplyModel) and collects a fresh Trace.
	// Nor does it carry the prefix coverage (cloneState resets it): see
	// Core.Coverage.
	n := c.cloneState()
	n.Input = nil
	n.Trace = nil
	// The live EPC is append-only, so the checkpoint shares its prefix
	// instead of copying it; the capacity cap keeps an append from
	// writing into the live core's array.
	n.EPC = c.EPC[:c.preEPCLen:c.preEPCLen]
	n.Mem = c.Mem.Clone()
	n.Mem.OnWrite = n.noteMemWrite
	n.siteCount = c.preSite
	n.traceRing = n.traceRing[:c.preRingLen]
	n.traceNext = c.preRingNext
	c.forkPoints[site] = &Checkpoint{core: n}
}

// Checkpoint returns the checkpoint captured at site during the last
// run, or nil when capture was skipped there (the caller falls back to
// a snapshot restart).
func (c *Core) Checkpoint(site int) *Checkpoint {
	return c.forkPoints[site]
}

// Checkpoints returns the number of checkpoints captured during the
// last run.
func (c *Core) Checkpoints() int {
	return len(c.forkPoints)
}

// Resume materializes a resumable core from the checkpoint: a fresh
// copy-on-write clone with the generational bound installed. The caller
// then installs the child's input with ApplyModel.
//
// Resume only reads the checkpoint, so any number of goroutines may
// resume one checkpoint at once (the caller's handoff of the checkpoint
// must synchronize, as the engine's run lock does). Every page of a
// checkpoint's memory is already shared and its write TLB is empty, so
// Memory.Clone writes nothing; the remaining state is copied field by
// field, and detector state and the block cache clone from it without
// mutating it.
func (cp *Checkpoint) Resume(bound int) *Core {
	n := cp.core.Clone()
	n.Bound = bound
	return n
}

// ApplyModel installs model as the core's input and re-evaluates the
// concrete half of every symbolic shadow in the VP under it: registers,
// saved context registers, memory bytes and console output bytes
// printed from symbolic values. Unassigned variables evaluate to zero,
// matching the Input-map read of a restart run.
func (c *Core) ApplyModel(model smt.Assignment) {
	c.Input = model
	ev := smt.NewEvaluator(model)
	for i := range c.Regs {
		if s := c.Regs[i].Sym; s != nil {
			c.Regs[i].C = uint32(ev.Eval(s))
		}
	}
	for i := range c.ctxStack {
		regs := &c.ctxStack[i].regs
		for j := range regs {
			if s := regs[j].Sym; s != nil {
				regs[j].C = uint32(ev.Eval(s))
			}
		}
	}
	c.Mem.Reconcretize(ev)
	for i, s := range c.outSym {
		if s != nil && i < len(c.Output) {
			c.Output[i] = byte(ev.Eval(s))
		}
	}
	ev.Release()
}
