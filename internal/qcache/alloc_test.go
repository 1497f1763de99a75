//go:build !race

// The race detector makes sync.Pool drop a random share of the objects
// put back, so the pooled validation memo is re-allocated at random
// under -race; allocation counts are only meaningful without it.

package qcache

import (
	"testing"

	"rvcte/internal/smt"
)

// TestExactHitAllocsConstant guards the allocation-free validation: an
// exact hit on a warmed 256-condition shared-prefix set allocates only a
// small constant per call (the live list, the element hashes and the
// hydrated model), nothing per condition or per sub-expression.
func TestExactHitAllocsConstant(t *testing.T) {
	bld := smt.NewBuilder()
	conds := sharedPrefixConds(bld, 256)
	c := New(bld, Options{})
	solver := smt.NewSolver(bld)
	if sat, _, _ := c.Check(solver, conds, nil); !sat {
		t.Fatal("seed query must be sat")
	}
	before := c.Stats()
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		if sat, _, _ := c.Check(solver, conds, nil); !sat {
			t.Fatal("hit must stay sat")
		}
	})
	st := c.Stats()
	// AllocsPerRun adds one warm-up call.
	if st.Hits-before.Hits != runs+1 || st.SolverCalls != 1 {
		t.Fatalf("every call must be an exact hit: %+v", st)
	}
	if allocs > 8 {
		t.Errorf("exact hit on %d conditions: %.1f allocs per call, want <= 8", len(conds), allocs)
	}
}
