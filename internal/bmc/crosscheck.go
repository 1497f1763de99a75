package bmc

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"rvcte/internal/iss"
	"rvcte/internal/qcache"
	"rvcte/internal/smt"
)

// BugKey identifies a bug site for cross-engine comparison: the error
// class and the faulting PC (inputs and messages differ per engine).
type BugKey struct {
	Kind iss.ErrKind
	PC   uint32
}

func (k BugKey) String() string { return fmt.Sprintf("%v@%#x", k.Kind, k.PC) }

// Keys extracts the deduplicated, sorted bug-site set of a BMC report.
func (r *Report) Keys() []BugKey {
	seen := map[BugKey]bool{}
	out := []BugKey{}
	for _, f := range r.Findings {
		k := BugKey{f.Kind, f.PC}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sortKeys(out)
	return out
}

func sortKeys(ks []BugKey) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].PC != ks[j].PC {
			return ks[i].PC < ks[j].PC
		}
		return ks[i].Kind < ks[j].Kind
	})
}

func dedupKeys(ks []BugKey) []BugKey {
	seen := map[BugKey]bool{}
	out := []BugKey{}
	for _, k := range ks {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sortKeys(out)
	return out
}

// CrossReport is the exhaustiveness oracle's verdict.
type CrossReport struct {
	BMC *Report
	// BMCBugs and ConcolicBugs are the two engines' deduplicated bug
	// sets at the same depth bound.
	BMCBugs      []BugKey
	ConcolicBugs []BugKey
	// ExtraInBMC are sites BMC reaches that concolic never reported: a
	// concolic exhaustiveness hole (confirmed findings) or a BMC false
	// positive (unconfirmed ones). Always an oracle failure.
	ExtraInBMC []BugKey
	// MissedByBMC are concolic findings BMC did not reach. An oracle
	// failure when the BMC run was Complete; expected (and recorded
	// here) when states were dropped as unsupported.
	MissedByBMC []BugKey
	// Agree: the sets match and the comparison was meaningful.
	Agree bool
}

// CrossCheck runs the bounded unrolling over snap and compares its bug
// set against the concolic engine's findings at the same depth bound
// (the caller runs concolic with MaxInstrPerRun = cfg.K and
// StopOnError off, and passes the finding keys in). A non-nil error is
// the oracle failing: the engines disagree in a way the BMC run's
// completeness cannot excuse.
func CrossCheck(ctx context.Context, snap *iss.Core, cfg Config, concolicBugs []BugKey) (*CrossReport, error) {
	x, err := New(snap, cfg)
	if err != nil {
		return nil, err
	}
	rep := x.Run(ctx)
	return Compare(rep, concolicBugs)
}

// Compare evaluates the oracle on an existing BMC report: the concolic
// finding set and the BMC-reachable bug set must agree.
func Compare(rep *Report, concolicBugs []BugKey) (*CrossReport, error) {
	cr := &CrossReport{
		BMC:          rep,
		BMCBugs:      rep.Keys(),
		ConcolicBugs: dedupKeys(concolicBugs),
	}
	conc := map[BugKey]bool{}
	for _, k := range cr.ConcolicBugs {
		conc[k] = true
	}
	inBMC := map[BugKey]bool{}
	for _, k := range cr.BMCBugs {
		inBMC[k] = true
		if !conc[k] {
			cr.ExtraInBMC = append(cr.ExtraInBMC, k)
		}
	}
	for _, k := range cr.ConcolicBugs {
		if !inBMC[k] {
			cr.MissedByBMC = append(cr.MissedByBMC, k)
		}
	}

	var faults []string
	if len(cr.ExtraInBMC) > 0 {
		faults = append(faults, fmt.Sprintf("BMC reaches %v which concolic never reported", cr.ExtraInBMC))
	}
	if len(cr.MissedByBMC) > 0 && rep.Complete {
		faults = append(faults, fmt.Sprintf("complete BMC run misses concolic findings %v", cr.MissedByBMC))
	}
	if rep.Unknown > 0 {
		faults = append(faults, fmt.Sprintf("%d bug sites left unknown by the solver budget", rep.Unknown))
	}
	for _, f := range rep.Findings {
		if !f.Confirmed {
			faults = append(faults, fmt.Sprintf("finding %v@%#x did not reproduce on concrete replay", f.Kind, f.PC))
		}
	}
	if len(faults) > 0 {
		return cr, fmt.Errorf("bmc cross-check failed: %s", strings.Join(faults, "; "))
	}
	cr.Agree = len(cr.MissedByBMC) == 0
	return cr, nil
}

// PathSample is one concolic path offered to the differential check:
// the path condition (EPC) it executed under, the concrete input that
// drove it, and the instructions it retired.
type PathSample struct {
	Conds []*smt.Expr
	Input smt.Assignment
	Depth uint64
}

// DiffReport is the outcome of the differential path-condition check.
type DiffReport struct {
	Samples   int
	SatAgreed int // path conditions BMC's solver agrees are satisfiable
	Covered   int // inputs falling under exactly one accounted guard
}

// DiffCheck is the differential path-condition check: for each sampled
// concolic path, (1) its path condition must be satisfiable — the
// concolic engine executed it, so a solver disagreeing exposes a
// soundness bug in one of them — and (2) with a Complete report, the
// path's concrete input must select exactly one of the unrolling's
// accounted guards: the state set covers the path and the guards still
// partition the input space. Queries go through cache when non-nil, so
// both engines share entries.
func (r *Report) DiffCheck(b *smt.Builder, cache *qcache.Cache, maxConflicts int, samples []PathSample) (*DiffReport, error) {
	solver := smt.NewSolver(b)
	solver.MaxConflictsPerQuery = maxConflicts
	dr := &DiffReport{Samples: len(samples)}
	var faults []string
	for i, ps := range samples {
		var sat, unknown bool
		if cache != nil {
			sat, _, unknown = cache.Check(solver, ps.Conds, ps.Input)
		} else {
			sat, _, unknown = solver.Check(ps.Conds...)
		}
		switch {
		case unknown:
			faults = append(faults, fmt.Sprintf("sample %d: path condition unknown under conflict budget", i))
		case !sat:
			faults = append(faults, fmt.Sprintf("sample %d: executed path condition is UNSAT", i))
		default:
			dr.SatAgreed++
		}

		if !r.Complete {
			continue
		}
		ev := smt.NewEvaluator(ps.Input)
		hits := 0
		for _, g := range r.Accounted {
			if ev.Eval(g) == 1 {
				hits++
			}
		}
		ev.Release()
		if hits == 1 {
			dr.Covered++
		} else {
			faults = append(faults, fmt.Sprintf("sample %d: input selects %d accounted guards (want exactly 1)", i, hits))
		}
	}
	if len(faults) > 0 {
		return dr, fmt.Errorf("bmc differential check failed: %s", strings.Join(faults, "; "))
	}
	return dr, nil
}
