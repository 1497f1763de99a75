package main

import (
	"bytes"
	"fmt"
	"time"

	"rvcte/internal/cte"
	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/qcache"
	"rvcte/internal/relf"
	"rvcte/internal/vp"
)

// workload is one fixed input set of the benchmark. Every workload is a
// closed loop: the engine takes the next path or execution only after
// the previous one completed. Worker counts are explicit, never
// cte.AutoWorkers, so a run does the same work on any host.
type workload struct {
	name string
	run  func(it *iter) error
	// unmeasured names the per-layer metrics of layers the workload
	// runs but the benchmark cannot observe from outside. Its traced
	// iterations leave them out, and a traced run marks them unmeasured
	// (a layer the workload never reaches reports 0 instead).
	unmeasured []string
}

var workloads = []workload{
	{"table1", runTable1, nil},
	{"findfix-tcpip", runFindFix, nil},
	{"session-depth3", runSessionDepth3, nil},
	{"hybrid-tcpip", runHybrid, nil},
	{"campaign-tcpip", runCampaign, campaignUnmeasured},
}

// campaignUnmeasured are the engine metrics of the campaign workers.
// campaign.RunWorker builds each worker's guest and runs its sessions
// with no obs registry the benchmark can reach, so only the counts the
// workers report with their results (cte.paths, iss.instr, smt.queries)
// are measured.
var campaignUnmeasured = []string{
	"guest.build_s", "guest.boot_s",
	"iss.exec_s", "iss.instr_per_s", "iss.bb_hit_ratio",
	"iss.path_us_p50", "iss.path_us_p99", "iss.path_n",
	"iss.clone_us_p50", "iss.clone_us_p99", "iss.clone_n",
	"cte.self_s", "cte.fork_ratio", "cte.fork_restarts", "cte.fork_suffix_instr",
	"cte.dedup_us_p50", "cte.dedup_us_p99", "cte.dedup_n",
	"smt.solver_s", "smt.solver_share", "smt.query_us_p50", "smt.query_us_p99", "smt.query_n",
	"qcache.lookups", "qcache.hit_ratio", "qcache.solver_calls", "qcache.self_s",
	"qcache.resolve_us_p50", "qcache.resolve_us_p99", "qcache.resolve_n",
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Workload sizes. Each full-size iteration takes 1.5–4 s on a 2-CPU
// host; the small sizes keep the package tests fast while running the
// same code.
const (
	sessionMaxPaths       = 1000 // ~0.9 GB peak RSS; 2000 paths reach ~2 GB
	sessionMaxPathsSmall  = 60
	hybridMaxExecs        = 8000
	hybridMaxExecsSmall   = 1000
	sweepMaxPathsSmall    = 80
	campaignMaxPathsSmall = 80
)

// engineConfig is the concolic configuration cmd/cte runs with by
// default: BFS, state forking above a 2000-instruction prefix and a
// fresh query cache.
func engineConfig(it *iter, snap *iss.Core, workers, maxPaths int, stopOnError bool) cte.Config {
	return cte.Config{
		Workers:     workers,
		Seed:        it.seed,
		StopOnError: stopOnError,
		Budget:      cte.Budget{MaxPaths: maxPaths},
		Cache:       cte.CacheConfig{Queries: qcache.New(snap.B, qcache.Options{})},
		Fork:        cte.ForkConfig{Enabled: true, MinPrefix: 2000},
	}
}

// table1Program resolves a Table 1 row name to its guest program.
func table1Program(name string) guest.Program {
	switch name {
	case "freertos-sensor":
		return guest.FreeRTOSSensorProgram(false, 3)
	case "freertos-sensor-s":
		p := guest.FreeRTOSSensorProgram(true, 2)
		p.Name = name
		return p
	}
	p, _ := guest.BenchProgram(name)
	return p
}

// runTable1 is the paper's Table 1: the concrete rows run single-path on
// the concolic ISS, each re-run on the concrete VP as a differential
// check (the VP run is a reference, outside wall time, and runs only on
// the iterations iter.reference selects); the
// symbolic rows explore to exhaustion; storm-s and counter-s also run
// through the bounded model checker, the BMC crossover rows.
func runTable1(it *iter) error {
	concrete := []string{"qsort", "sha256", "dhrystone", "freertos-sensor"}
	symbolic := []struct {
		name     string
		maxPaths int
		findings int
	}{
		{"counter-s", 1500, 0},
		{"fibonacci-s", 200, 0},
		{"qsort-s", 600, 0},
		{"freertos-sensor-s", 60, 0},
		{"storm-s", 0, 1}, // the seeded assertion
	}
	if it.small {
		concrete = []string{"freertos-sensor"}
		symbolic = symbolic[3:]
	}

	type row struct {
		name string
		core *iss.Core
		elf  *relf.File
	}
	start := time.Now()
	var rows []row
	for _, name := range concrete {
		core, elf, err := it.newCore(table1Program(name))
		if err != nil {
			return err
		}
		rows = append(rows, row{name, core, elf})
	}
	symCores := make([]*iss.Core, len(symbolic))
	for i, s := range symbolic {
		core, _, err := it.newCore(table1Program(s.name))
		if err != nil {
			return err
		}
		symCores[i] = core
	}
	it.setup += time.Since(start)

	concreteSpan := it.spans.begin("stage:concrete", it.root)
	for _, r := range rows {
		c := r.core.Clone()
		runStart := time.Now()
		c.Run(0)
		d := time.Since(runStart)
		it.spans.add("iss.run:"+r.name, runStart, runStart.Add(d), concreteSpan)
		it.wall += d
		it.runTime += d
		it.runInstr += c.InstrCount
		it.instr += c.InstrCount
		it.execs++
		h, m, _ := c.BBStats()
		it.bbHits += h
		it.bbMis += m
		it.check(c.Err == nil && c.Exited, "table1 %s: CTE run did not exit cleanly: %v", r.name, c.Err)
		if it.reference {
			if err := it.vpReference(r.name, r.elf, c); err != nil {
				return err
			}
		}
	}
	it.spans.end(concreteSpan)

	symSpan := it.spans.begin("stage:symbolic", it.root)
	var stormBug *iss.SimError
	for i, s := range symbolic {
		rep := it.session(s.name, symSpan, symCores[i], engineConfig(it, symCores[i], 1, s.maxPaths, false), nil)
		it.execs += uint64(rep.Paths)
		it.instr += rep.TotalInstr
		it.check(rep.Exhausted && len(rep.Findings) == s.findings,
			"table1 %s: want exhaustion with %d findings, got stopped=%s findings=%d", s.name, s.findings, rep.Stopped, len(rep.Findings))
		if s.name == "storm-s" && len(rep.Findings) == 1 {
			stormBug = rep.Findings[0].Err
		}
	}
	it.spans.end(symSpan)
	if it.small {
		return nil
	}

	// The BMC crossover rows reuse the symbolic snapshots: storm-s must
	// report exactly the bug site concolic found, counter-s must prove
	// absence by exhausting below the depth bound.
	bmcSpan := it.spans.begin("stage:bmc", it.root)
	for i, s := range symbolic {
		if s.name != "storm-s" && s.name != "counter-s" {
			continue
		}
		cfg := cte.Config{Mode: cte.ModeBMC, Workers: 1, Cache: cte.CacheConfig{Queries: qcache.New(symCores[i].B, qcache.Options{})}}
		rep := it.session(s.name+"-bmc", bmcSpan, symCores[i], cfg, nil)
		it.instr += rep.TotalInstr
		br := rep.BMC
		if s.name == "counter-s" {
			it.check(br != nil && br.Exhausted && len(rep.Findings) == 0,
				"table1 counter-s -bmc: want exhausted absence proof, got stopped=%s findings=%d", rep.Stopped, len(rep.Findings))
			continue
		}
		ok := br != nil && len(br.Findings) == 1 && br.Findings[0].Confirmed && stormBug != nil &&
			br.Findings[0].Kind == stormBug.Kind && br.Findings[0].PC == stormBug.PC
		it.check(ok, "table1 storm-s -bmc: want the concolic bug site confirmed, got stopped=%s findings=%d", rep.Stopped, len(rep.Findings))
	}
	it.spans.end(bmcSpan)
	return nil
}

// vpReference re-runs a concrete Table 1 row on the concrete VP and
// checks that it agrees with the ISS run c. The ISS runs peripheral
// models as guest code and the VP runs them natively, so instruction
// counts agree only on rows without peripherals.
func (it *iter) vpReference(name string, elf *relf.File, c *iss.Core) error {
	p := c.Cfg
	cpu := vp.New(vp.Config{RamBase: p.RamBase, RamSize: p.RamSize, StackTop: p.StackTop, MaxInstr: p.MaxInstr})
	vp.AttachStandardPeripherals(cpu)
	if err := cpu.LoadELF(elf); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	timed(&it.vpTime, func() { cpu.Run(0) })
	it.vpInstr += cpu.InstrCount
	it.check(cpu.Err == nil && cpu.Exited, "table1 %s: VP run did not exit cleanly: %v", name, cpu.Err)
	sameInstr := cpu.InstrCount == c.InstrCount || len(c.Peripherals) > 0
	it.check(sameInstr && cpu.ExitCode == c.ExitCode && bytes.Equal(cpu.Output, c.Output),
		"table1 %s: VP and ISS disagree: instr %d/%d exit %d/%d output %q/%q",
		name, cpu.InstrCount, c.InstrCount, cpu.ExitCode, c.ExitCode, cpu.Output, c.Output)
	return nil
}

// runFindFix is the paper's Table 2 find-fix-rerun workflow on the
// TCP/IP stack: six stop-on-error stages, each a fresh session whose
// finding is classified and patched before the next, then a clean sweep
// of the fully patched stack to exhaustion.
func runFindFix(it *iter) error {
	var fixed uint
	for stage := 1; stage <= 6; stage++ {
		start := time.Now()
		core, elf, err := it.newCore(guest.TCPIPProgram(fixed, 64))
		if err != nil {
			return err
		}
		it.setup += time.Since(start)

		span := it.spans.begin(fmt.Sprintf("stage:%d", stage), it.root)
		before := it.wall
		rep := it.session(fmt.Sprintf("stage%d", stage), span, core, engineConfig(it, core, 1, 10000, true), nil)
		it.stageTime += it.wall - before
		it.spans.end(span)
		it.execs += uint64(rep.Paths)
		it.instr += rep.TotalInstr

		bug := 0
		if len(rep.Findings) > 0 {
			f := rep.Findings[0]
			bug = guest.Classify("tcpip", elf, f.Err.Kind, f.Err.PC, fixed)
		}
		ok := bug >= 1 && bug <= 6 && !it.bugs[bug]
		it.check(ok, "findfix stage %d: want a new bug in 1-6, got bug %d after %d paths (stopped=%s)", stage, bug, rep.Paths, rep.Stopped)
		if !ok {
			break
		}
		it.bugs[bug] = true
		fixed |= 1 << (bug - 1)
	}

	start := time.Now()
	core, _, err := it.newCore(guest.TCPIPProgram(0x3f, 64))
	if err != nil {
		return err
	}
	it.setup += time.Since(start)
	maxPaths, want := 10000, "exhausted"
	if it.small {
		maxPaths, want = sweepMaxPathsSmall, "path-budget"
	}
	span := it.spans.begin("stage:sweep", it.root)
	var capture func(int, *iss.Core)
	if it.traced {
		capture = func(_ int, c *iss.Core) { it.captureReplay(c, 200) }
	}
	rep := it.session("sweep", span, core, engineConfig(it, core, 1, maxPaths, false), capture)
	it.spans.end(span)
	it.execs += uint64(rep.Paths)
	it.instr += rep.TotalInstr
	it.check(rep.Stopped == want && len(rep.Findings) == 0,
		"findfix sweep: want stopped=%s with no findings, got stopped=%s findings=%d", want, rep.Stopped, len(rep.Findings))
	return nil
}

// runSessionDepth3 explores the patched three-packet session guest with
// every detector attached, the coverage strategy and two workers — the
// fork- and memory-heavy workload.
func runSessionDepth3(it *iter) error {
	fixed, err := guest.ParseFixList("7,8,9", 7, 9)
	if err != nil {
		return err
	}
	p := guest.TCPIPSessionProgram(fixed, nil, 3)
	start := time.Now()
	core, elf, err := it.newCore(p)
	if err != nil {
		return err
	}
	it.setup += time.Since(start)
	addr, ok := elf.Symbol(p.Proto.StateSym)
	if !ok {
		return fmt.Errorf("session guest: no %s symbol", p.Proto.StateSym)
	}
	maxPaths := sessionMaxPaths
	if it.small {
		maxPaths = sessionMaxPathsSmall
	}
	cfg := engineConfig(it, core, 2, maxPaths, false)
	cfg.Detectors = []string{"all"}
	cfg.Explore.Strategy = cte.Coverage
	cfg.Protocol = cte.ProtocolConfig{Packets: p.Proto.Pkts, PktMax: p.Proto.Caps, StateAddr: addr, States: p.Proto.States}
	rep := it.session("session", it.root, core, cfg, nil)
	it.execs += uint64(rep.Paths)
	it.instr += rep.TotalInstr
	it.check(rep.Stopped == "path-budget" && len(rep.Findings) == 0,
		"session-depth3: want stopped=path-budget with no findings, got stopped=%s findings=%d", rep.Stopped, len(rep.Findings))
	return nil
}

// runHybrid fuzzes the buggy TCP/IP stack in hybrid mode for a fixed
// execution budget, escalating to concolic flips on coverage stalls.
func runHybrid(it *iter) error {
	start := time.Now()
	core, elf, err := it.newCore(guest.TCPIPProgram(0, 64))
	if err != nil {
		return err
	}
	it.setup += time.Since(start)
	execs := uint64(hybridMaxExecs)
	if it.small {
		execs = hybridMaxExecsSmall
	}
	cfg := cte.Config{
		Mode:    cte.ModeHybrid,
		Workers: 1,
		Seed:    it.seed,
		Budget:  cte.Budget{MaxExecs: execs},
		Cache:   cte.CacheConfig{Queries: qcache.New(core.B, qcache.Options{})},
		Fuzz:    cte.FuzzConfig{DryEscalations: 1000},
	}
	rep := it.session("hybrid", it.root, core, cfg, nil)
	if rep.Fuzz == nil {
		return fmt.Errorf("hybrid: no fuzz report (stopped=%s)", rep.Stopped)
	}
	it.execs += rep.Fuzz.Execs
	it.instr += rep.Fuzz.TotalInstr + rep.Fuzz.ReplayedInstrs
	it.edges = rep.Fuzz.Edges
	it.hybridSolver = rep.SolverTime
	it.check(rep.Stopped == "exec-budget", "hybrid: want stopped=exec-budget, got %s", rep.Stopped)
	for _, f := range rep.Findings {
		bug := guest.Classify("tcpip", elf, f.Err.Kind, f.Err.PC, 0)
		ok := bug >= 1 && bug <= 6
		it.check(ok, "hybrid: finding %v classifies to no Table 2 bug", f.Err)
		if ok {
			it.bugs[bug] = true
		}
	}
	return nil
}
