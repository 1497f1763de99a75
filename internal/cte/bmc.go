package cte

import (
	"context"
	"time"

	"rvcte/internal/bmc"
	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

// BMCConfig tunes ModeBMC; zero values select the documented defaults.
// The other engines ignore it.
type BMCConfig struct {
	// K is the unroll depth bound in instructions per path. 0 falls
	// back to Budget.MaxInstrPerRun, then to the snapshot's own
	// MaxInstr default — the same ladder the concolic engine's per-path
	// budget resolves through, so the two engines are depth-aligned by
	// default.
	K int
}

// bmcDepth resolves the effective depth bound for a snapshot.
func bmcDepth(snap *iss.Core, cfg Config) int {
	if cfg.BMC.K > 0 {
		return cfg.BMC.K
	}
	if cfg.Budget.MaxInstrPerRun > 0 {
		return int(cfg.Budget.MaxInstrPerRun)
	}
	if snap.Cfg.MaxInstr > 0 {
		return int(snap.Cfg.MaxInstr)
	}
	return 1 << 20
}

func bmcConfig(snap *iss.Core, cfg Config) bmc.Config {
	return bmc.Config{
		K:            bmcDepth(snap, cfg),
		Cache:        cfg.Cache.Queries,
		MaxConflicts: cfg.Budget.MaxConflictsPerQuery,
		Obs:          cfg.Obs,
	}
}

// runBMC executes the bounded-model-checking mode of a Session and
// lowers the bmc report into the unified Report shape: each reachable
// bug site becomes a Finding with the solver model as its input.
func runBMC(ctx context.Context, snap *iss.Core, cfg Config) *Report {
	start := time.Now()
	snap.Freeze()
	rep := &Report{}
	x, err := bmc.New(snap, bmcConfig(snap, cfg))
	if err != nil {
		rep.Stopped = "bmc-setup: " + err.Error()
		return rep
	}
	br := x.Run(ctx)
	rep.BMC = br
	rep.Queries = br.Queries
	rep.SolverTime = br.SolverTime
	rep.TotalInstr = br.Steps
	rep.Exhausted = br.Exhausted
	rep.Stopped = br.Stopped
	for _, f := range br.Findings {
		rep.Findings = append(rep.Findings, Finding{
			Err:   &iss.SimError{Kind: f.Kind, PC: f.PC, Addr: f.Addr, Msg: f.Msg},
			Input: f.Input,
		})
	}
	if cfg.Cache.Queries != nil {
		cs := cfg.Cache.Queries.Stats()
		rep.Cache = &cs
	}
	rep.WallTime = time.Since(start)
	return rep
}

// ConcolicBugKeys projects a concolic Report's findings onto the
// (kind, pc) bug-site keys the BMC cross-check compares on.
func ConcolicBugKeys(rep *Report) []bmc.BugKey {
	keys := make([]bmc.BugKey, 0, len(rep.Findings))
	for _, f := range rep.Findings {
		keys = append(keys, bmc.BugKey{Kind: f.Err.Kind, PC: f.Err.PC})
	}
	return keys
}

// BMCCrossCheck is the exhaustiveness oracle plus the differential
// path-condition check, in one call: run the concolic engine
// depth-bounded to the BMC depth with StopOnError off, sampling up to
// maxSamples executed path conditions; run the bounded unrolling from
// the same snapshot; then require the two bug sets to agree
// (bmc.Compare) and the sampled path conditions to be satisfiable and
// covered by the unrolling's guard partition (Report.DiffCheck). The
// returned error is an engine-disagreement verdict, not a setup
// failure.
func BMCCrossCheck(ctx context.Context, snap *iss.Core, cfg Config, maxSamples int) (*bmc.CrossReport, *bmc.DiffReport, error) {
	k := bmcDepth(snap, cfg)
	ccfg := cfg
	ccfg.Mode = ModeConcolic
	ccfg.StopOnError = false
	ccfg.Budget.MaxInstrPerRun = uint64(k)

	var samples []bmc.PathSample
	sess := NewSession(snap, ccfg)
	sess.OnPath = func(_ int, core *iss.Core) {
		if len(samples) >= maxSamples {
			return
		}
		samples = append(samples, bmc.PathSample{
			Conds: append([]*smt.Expr(nil), core.EPC...),
			Input: core.Input,
			Depth: core.InstrCount,
		})
	}
	crep := sess.Run(ctx)

	cross, err := bmc.CrossCheck(ctx, snap, bmcConfig(snap, cfg), ConcolicBugKeys(crep))
	if err != nil || cross == nil {
		return cross, nil, err
	}
	diff, derr := cross.BMC.DiffCheck(snap.B, cfg.Cache.Queries, cfg.Budget.MaxConflictsPerQuery, samples)
	return cross, diff, derr
}
