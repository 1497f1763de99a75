// Command cte runs concolic testing on a guest system: it clones the VP
// per input, explores paths by solving trace conditions and reports any
// runtime errors or heap overflows found (the tool form of the paper's
// CTE engine).
//
// Usage:
//
//	cte -prog sensor                     # the paper's Fig. 2/3 example
//	cte -prog tcpip                      # FreeRTOS-style TCP/IP stack
//	cte -prog tcpip -fix 1,2             # ... with bugs 1 and 2 patched
//	cte -prog counter-s -strategy dfs
//	cte -cover -err-trace 8 -prog sensor # coverage + finding trace
//	cte -fuzz -prog tcpip -fuzz-time 60s # hybrid fuzzing instead of pure CTE
//	cte -prog tcpip -progress 2s -trace run.jsonl   # live progress + event trace
//	cte -prog tcpip -listen :8080        # live /metrics JSON + pprof
//	cte prog.elf                         # explore an arbitrary ELF
//
// A run can be interrupted with SIGINT/SIGTERM: the engines wind down
// promptly and the (partial) report is still printed, with stopped =
// "canceled".
//
// Exit codes: 0 = explored clean, 1 = findings reported, 2 = usage or
// setup error.
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rvcte/internal/cte"
	"rvcte/internal/findfix"
	"rvcte/internal/fuzz"
	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/obs"
	"rvcte/internal/qcache"
	"rvcte/internal/relf"
	"rvcte/internal/smt"
)

func main() {
	progName := flag.String("prog", "", "built-in program: sensor, sensor-fixed, tcpip, tcpip-session, freertos-sensor, qsort-s, counter-s, fibonacci-s, storm-s")
	fixList := flag.String("fix", "", "tcpip/tcpip-session only: comma-separated bug numbers to patch (1-9)")
	maxPaths := flag.Int("max-paths", 1000, "path budget (0 = unlimited)")
	maxInstr := flag.Uint64("max-instr", 0, "per-path instruction budget (0 = program default)")
	strategy := flag.String("strategy", "bfs", "search strategy: bfs, dfs, random, coverage")
	stopOnError := flag.Bool("stop-on-error", true, "stop at the first finding")
	timeout := flag.Duration("timeout", 0, "wall-clock budget (0 = unlimited)")
	pktMax := flag.Int("pkt-max", 64, "tcpip/tcpip-session: bound on the symbolic packet size")
	pkts := flag.Int("pkts", 0, "tcpip-session only: session depth in packets (0 = program default)")
	pktCaps := flag.String("pkt-caps", "", "tcpip-session only: comma-separated per-packet symbolic size caps; the last cap repeats (default: -pkt-max for every packet)")
	detectors := flag.String("detectors", "", "comma-separated bug-detector set to attach (heap-guard, heap-uaf, stack-canary, irq-reentrancy, or \"all\"; empty = default heap-guard)")
	verbose := flag.Bool("v", false, "print each explored path")
	cover := flag.Bool("cover", false, "print per-function coverage after exploration")
	errTrace := flag.Int("err-trace", 0, "print the last N instructions of each finding")
	traceFile := flag.String("trace", "", "write a structured JSONL event trace (path/query/cache/fuzz events) to this file")
	progressEvery := flag.Duration("progress", 0, "print a live progress line to stderr at this interval (0 = off)")
	listenAddr := flag.String("listen", "", "serve live /metrics JSON and /debug/pprof on this address while the run lasts")
	workers := flag.Int("j", runtime.NumCPU(), "exploration workers (1 = one worker, deterministic path order); with -fuzz, the fuzz executors")
	maxConflicts := flag.Int("max-conflicts", 0, "per-query solver conflict budget; exhausted queries count as unknown (0 = unlimited)")
	useCache := flag.Bool("cache", true, "enable the SMT query cache (model reuse, unsat subsumption, independence slicing)")
	cacheDir := flag.String("cache-dir", "", "persist the query cache under this directory so repeated runs warm-start")
	jsonOut := flag.Bool("json", false, "emit the full report as a single JSON object on stdout (suppresses the human summary)")
	seed := flag.Int64("seed", 0, "PRNG seed for the random strategy and the fuzzer (runs are reproducible for a fixed seed at -j 1)")
	fuzzMode := flag.Bool("fuzz", false, "hybrid fuzzing: coverage-guided concrete fuzzing with concolic escalation on stall, instead of pure concolic exploration")
	bmcMode := flag.Bool("bmc", false, "bounded model checking: symbolically execute all paths at once up to the -k depth bound, merging at join points, and solve one reachability query per bug site, instead of pure concolic exploration")
	bmcK := flag.Int("k", 0, "with -bmc: unroll depth bound in instructions (0 = -max-instr, then the program default)")
	fuzzTime := flag.Duration("fuzz-time", 30*time.Second, "fuzzing wall-clock budget (0 = until dry or first finding)")
	corpusDir := flag.String("corpus-dir", "", "fuzz only: load initial inputs from this directory and persist the final corpus back to it")
	dryEscalations := flag.Int("dry-escalations", 0, "fuzz only: stop after this many consecutive escalations without new coverage (0 = engine default; deep stateful guests need hundreds)")
	forkMode := flag.Bool("fork", true, "resume divergence checkpoints instead of re-executing path prefixes from the snapshot (disable for the restart-only ablation baseline)")
	forkMinPrefix := flag.Uint64("fork-min-prefix", 2000, "skip checkpoint capture on path prefixes shorter than this many instructions (restarting a short prefix is cheaper than checkpointing it; 0 = checkpoint every divergence)")
	serveAddr := flag.String("serve", "", "campaign coordinator: serve the HTTP control plane on this address instead of exploring locally")
	spoolDir := flag.String("spool", "", "with -serve: persist campaign state under this directory and resume it on restart")
	connectAddr := flag.String("connect", "", "campaign worker: execute leases from the coordinator at this address")
	workerID := flag.String("worker-id", "", "with -connect: stable worker identity (default hostname-pid)")
	submitAddr := flag.String("submit", "", "campaign client: submit -prog as a campaign to the coordinator at this address and stream its findings")
	findFix := flag.Bool("findfix", false, "with -submit -prog tcpip: iterate stop-on-error campaigns, patching each classified bug, until the stack explores clean")
	batch := flag.Int("batch", 0, "with -submit: frontier inputs per lease (0 = coordinator default)")
	leaseTTL := flag.Duration("lease-ttl", 0, "with -submit: lease lifetime before re-assignment (0 = coordinator default)")
	flag.Parse()

	// -pkt-max has a tcpip-oriented default (64); for the stateful
	// session guest an unset flag must keep the program's own
	// per-packet caps (32) — otherwise the depth-2-clean property of
	// the seeded deep bugs silently changes with a flag default.
	if *progName == "tcpip-session" && !flagWasSet("pkt-max") {
		*pktMax = 0
	}
	target := findfix.Target{
		Prog: *progName, Fix: *fixList, PktMax: *pktMax,
		Pkts: *pkts, PktCaps: parseIntList(*pktCaps), Detectors: parseNameList(*detectors),
	}

	copts := campaignOpts{
		serve: *serveAddr, spool: *spoolDir,
		connect: *connectAddr, workerID: *workerID,
		submit: *submitAddr, findFix: *findFix,
		target: target,
		fuzz:   *fuzzMode,
		bmc:    *bmcMode, bmcK: *bmcK,
		batch: *batch, leaseTTL: *leaseTTL,
		maxPaths: *maxPaths, maxInstr: *maxInstr, maxConflicts: *maxConflicts,
		stopOnError: *stopOnError, seed: *seed,
	}
	die(iss.CheckDetectors(target.Detectors))
	if err := validateCampaignFlags(copts, flag.NArg()); err != nil {
		fmt.Fprintln(os.Stderr, "cte:", err)
		os.Exit(2)
	}
	if target.Prog != "" {
		die(target.Check())
	}
	if copts.serve != "" || copts.connect != "" || copts.submit != "" {
		os.Exit(campaignMain(copts))
	}

	b := smt.NewBuilder()
	var g findfix.Built
	var err error
	switch {
	case target.Prog != "":
		g, err = target.Build(b)
	case flag.NArg() == 1:
		var data []byte
		data, err = os.ReadFile(flag.Arg(0))
		if err == nil {
			g.ELF, err = relf.Load(data)
		}
		if err == nil {
			g.Core = iss.New(b, iss.Config{RamBase: 0x80000000, RamSize: 4 << 20, MaxInstr: 100_000_000})
			g.Core.LoadImage(g.ELF.Addr, g.ELF.Data, g.ELF.Entry)
			err = g.Core.AttachDetectorSet(target.Detectors)
		}
	default:
		fmt.Fprintln(os.Stderr, "cte: need -prog <name> or an ELF file")
		os.Exit(2)
	}
	die(err)

	strat, ok := map[string]cte.Strategy{
		"bfs": cte.BFS, "dfs": cte.DFS, "random": cte.Random, "coverage": cte.Coverage,
	}[*strategy]
	if !ok {
		fmt.Fprintf(os.Stderr, "cte: unknown -strategy %q (want bfs, dfs, random or coverage)\n", *strategy)
		os.Exit(2)
	}

	// The query cache is shared by all exploration workers; -cache-dir
	// additionally persists it per guest identity across runs.
	var qc *qcache.Cache
	var cacheFile string
	if *useCache {
		qc = qcache.New(b, qcache.Options{})
		if *cacheDir != "" {
			if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
				die(err)
			}
			cacheFile = filepath.Join(*cacheDir, cacheID(target, flag.Args())+".qcache")
			if err := qc.Load(cacheFile); err != nil && !os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "cte: warning: ignoring cache file: %v\n", err)
			}
		}
	}

	// Observability: the metric registry is always on (its counters are
	// the -json obs section); the tracer, progress reporter and HTTP
	// endpoint are opt-in.
	ob := obs.New()
	if *traceFile != "" {
		tr, err := obs.OpenTrace(*traceFile)
		die(err)
		ob.Tracer = tr
	}
	var prog *obs.Progress
	if *progressEvery > 0 {
		budget := *timeout
		if *fuzzMode {
			budget = *fuzzTime
		}
		prog = obs.StartProgress(ob, obs.ProgressOptions{Interval: *progressEvery, Budget: budget})
	}
	var shutdown func() error
	if *listenAddr != "" {
		bound, sd, err := obs.Serve(*listenAddr, ob)
		die(err)
		shutdown = sd
		fmt.Fprintf(os.Stderr, "cte: serving /metrics and /debug/pprof on http://%s\n", bound)
	}

	cfg := cte.Config{
		Workers: *workers,
		Budget: cte.Budget{
			Timeout:              *timeout,
			MaxPaths:             *maxPaths,
			MaxInstrPerRun:       *maxInstr,
			MaxConflictsPerQuery: *maxConflicts,
		},
		Cache:       cte.CacheConfig{Queries: qc},
		Obs:         ob,
		Seed:        *seed,
		StopOnError: *stopOnError,
		Explore: cte.ExploreConfig{
			Strategy:      strat,
			TrackCoverage: *cover,
			TraceDepth:    *errTrace,
		},
		Fork: cte.ForkConfig{Enabled: *forkMode, MinPrefix: *forkMinPrefix},
		// Stateful guests publish their protocol-state byte; wiring it
		// banks edge coverage by protocol state and scopes the run to the
		// session depth the guest was built with.
		Protocol: g.Proto,
	}
	if *fuzzMode {
		cfg.Mode = cte.ModeHybrid
		cfg.Budget.Timeout = *fuzzTime
		cfg.Fuzz.DryEscalations = *dryEscalations
		if *corpusDir != "" {
			seeds, err := fuzz.LoadDir(*corpusDir)
			die(err)
			cfg.Fuzz.Seeds = seeds
		}
	}
	if *bmcMode {
		cfg.Mode = cte.ModeBMC
		cfg.BMC.K = *bmcK
	}

	sess := cte.NewSession(g.Core, cfg)
	if *verbose && !*jsonOut && !*fuzzMode {
		sess.OnPath = func(path int, c *iss.Core) {
			status := "ok"
			if c.Err != nil {
				status = c.Err.Error()
			} else if c.Exited {
				status = fmt.Sprintf("exit %d", c.ExitCode)
			}
			fmt.Printf("path %4d: %8d instr, %s\n", path, c.InstrCount, status)
		}
	}

	// SIGINT/SIGTERM cancel the run; the engines finish the path or batch
	// in flight and return the partial report.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rep := sess.Run(ctx)
	stop()

	// Tear observability down before reporting: the progress line must
	// not interleave with the summary, and the trace must be flushed
	// (os.Exit below skips defers).
	if prog != nil {
		prog.Stop()
	}
	if ob.Tracer != nil {
		if err := ob.Tracer.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cte: warning: trace not fully written: %v\n", err)
		}
	}
	if shutdown != nil {
		_ = shutdown()
	}

	if cacheFile != "" {
		if err := qc.Save(cacheFile); err != nil {
			fmt.Fprintf(os.Stderr, "cte: warning: could not persist cache: %v\n", err)
		}
	}
	if *fuzzMode && *corpusDir != "" && rep.Fuzz != nil {
		if err := fuzz.SaveDir(*corpusDir, rep.Fuzz.Corpus); err != nil {
			fmt.Fprintf(os.Stderr, "cte: warning: could not persist corpus: %v\n", err)
		}
	}

	if *jsonOut {
		emitJSON(b, g.ELF, *progName, cfg, rep)
	} else if rep.Mode == cte.ModeHybrid {
		printFuzzReport(g.ELF, rep)
	} else if rep.Mode == cte.ModeBMC {
		printBMCReport(b, g.ELF, rep)
	} else {
		printReport(b, g.ELF, rep, *cover)
	}
	if len(rep.Findings) > 0 {
		os.Exit(1)
	}
}

// printReport is the human summary of a concolic exploration run.
func printReport(b *smt.Builder, elf *relf.File, rep *cte.Report, cover bool) {
	fmt.Printf("explored %d paths in %.2fs (%d queries, %.2fs solver, %d instructions total)\n",
		rep.Paths, rep.WallTime.Seconds(), rep.Queries, rep.SolverTime.Seconds(), rep.TotalInstr)
	fmt.Printf("trace conditions: %d sat, %d unsat, %d unknown (budget-exhausted)\n",
		rep.SatTCs, rep.UnsatTCs, rep.UnknownTCs)
	if rep.Forked > 0 || rep.ForkRestarts > 0 {
		fmt.Printf("state forking: %d paths resumed from checkpoints, %d fell back to snapshot restarts\n",
			rep.Forked, rep.ForkRestarts)
	}
	printCacheSummary(rep.Cache)
	if rep.Workers > 1 {
		fmt.Printf("workers: %d\n", rep.Workers)
		for i, ws := range rep.PerWorker {
			fmt.Printf("  worker %d: %5d paths, %6d queries, %.2fs solver\n",
				i, ws.Paths, ws.Queries, ws.SolverTime.Seconds())
		}
	}
	if rep.Exhausted {
		fmt.Println("state space exhausted")
	} else if rep.Stopped != "" {
		fmt.Printf("stopped: %s\n", rep.Stopped)
	}
	if cover && elf != nil {
		printCoverage(elf, rep.Covered)
	}
	if len(rep.Findings) == 0 {
		fmt.Println("no errors found")
		return
	}
	for _, f := range rep.Findings {
		fmt.Printf("FINDING: %v\n", f.Err)
		if elf != nil {
			fmt.Printf("  in function: %s\n", guest.LocateFunc(elf, f.Err.PC))
		}
		fmt.Printf("  input: %s\n", cte.DescribeInput(b, f.Input))
		if len(f.Trace) > 0 {
			fmt.Println("  last instructions:")
			for _, te := range f.Trace {
				fn := ""
				if elf != nil {
					fn = "  # " + guest.LocateFunc(elf, te.PC)
				}
				fmt.Printf("    %08x: %s%s\n", te.PC, te.Inst, fn)
			}
		}
	}
}

// printCoverage aggregates covered PCs per function symbol.
func printCoverage(elf *relf.File, covered map[uint32]struct{}) {
	if len(covered) == 0 {
		return
	}
	perFn := map[string]int{}
	for pc := range covered {
		perFn[guest.LocateFunc(elf, pc)]++
	}
	names := make([]string, 0, len(perFn))
	for n := range perFn {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("coverage: %d distinct PCs across %d functions\n", len(covered), len(names))
	for _, n := range names {
		fmt.Printf("  %-32s %5d instructions\n", n, perFn[n])
	}
}

// parseIntList parses a comma-separated list of non-negative ints;
// malformed entries are usage errors.
func parseIntList(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			die(fmt.Errorf("bad list entry %q", part))
		}
		out = append(out, n)
	}
	return out
}

// flagWasSet reports whether the named flag was given on the command
// line (flag.Visit only walks explicitly-set flags).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// parseNameList splits a comma-separated name list, dropping blanks.
func parseNameList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if t := strings.TrimSpace(part); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// printCacheSummary prints the query-cache line of a human summary
// (nothing when the run had no cache).
func printCacheSummary(cs *qcache.Stats) {
	if cs == nil {
		return
	}
	fmt.Printf("query cache: %d exact, %d eval-reuse, %d subsumed of %d lookups; %d SAT calls (%d sliced), %d entries (%d loaded)\n",
		cs.Hits, cs.EvalHits, cs.SubsumeHits, cs.Queries, cs.SolverCalls, cs.SliceSolves, cs.Entries, cs.Loaded)
}

// printFuzzReport is the human summary of a hybrid fuzzing run.
func printFuzzReport(elf *relf.File, rep *cte.Report) {
	st := rep.Fuzz
	rate := 0.0
	if rep.WallTime > 0 {
		rate = float64(st.Execs) / rep.WallTime.Seconds()
	}
	fmt.Printf("hybrid fuzzing: %d execs in %.2fs (%.0f exec/s), corpus %d, %d edges, %d pruned\n",
		st.Execs, rep.WallTime.Seconds(), rate, st.CorpusSize, st.Edges, st.Pruned)
	fmt.Printf("concolic assist: %d stalls escalated, %d flips solved (%d sat, %d unsat, %d unknown), %d solved inputs fed back\n",
		st.Escalations, st.FlipsAttempted, rep.SatTCs, rep.UnsatTCs, rep.UnknownTCs, st.Solves)
	fmt.Printf("solver: %d queries, %.2fs\n", rep.Queries, rep.SolverTime.Seconds())
	printCacheSummary(rep.Cache)
	if st.SkipInitInstrs > 0 {
		fmt.Printf("skip-init: %d instructions executed once and snapshotted\n", st.SkipInitInstrs)
	}
	fmt.Printf("stopped: %s\n", rep.Stopped)
	if len(rep.Findings) == 0 {
		fmt.Println("no errors found")
		return
	}
	for _, f := range rep.Findings {
		fmt.Printf("FINDING: %v\n", f.Err)
		if elf != nil {
			fmt.Printf("  in function: %s\n", guest.LocateFunc(elf, f.Err.PC))
		}
		fmt.Printf("  input: %s  (exec %d)\n", hex.EncodeToString(f.Data), f.Exec)
	}
}

// printBMCReport is the human summary of a bounded-model-checking run.
func printBMCReport(b *smt.Builder, elf *relf.File, rep *cte.Report) {
	br := rep.BMC
	if br == nil {
		fmt.Printf("bmc: did not run (%s)\n", rep.Stopped)
		return
	}
	fmt.Printf("bmc: unrolled to depth %d in %.2fs: %d symbolic steps, peak %d states (%d splits, %d merges)\n",
		br.K, rep.WallTime.Seconds(), br.Steps, br.PeakStates, br.Splits, br.Merges)
	fmt.Printf("accounting: %d exits, %d truncated at the bound, %d guarded violations at %d sites\n",
		br.Exits, br.Truncated, br.Violations, br.Sites)
	fmt.Printf("solver: %d queries, %.2fs, %d sites unknown (budget-exhausted)\n",
		br.Queries, br.SolverTime.Seconds(), br.Unknown)
	printCacheSummary(rep.Cache)
	if len(br.Unsupported) > 0 {
		reasons := make([]string, 0, len(br.Unsupported))
		for why, n := range br.Unsupported {
			reasons = append(reasons, fmt.Sprintf("%s x%d", why, n))
		}
		sort.Strings(reasons)
		fmt.Printf("incomplete: states dropped as unsupported (%s) — absence is NOT proven\n",
			strings.Join(reasons, ", "))
	} else if br.Exhausted {
		fmt.Println("state space exhausted below the bound: the bug set is exact, not just up to depth")
	} else if br.Truncated > 0 {
		fmt.Printf("absence proven up to depth %d (deeper behaviour truncated)\n", br.K)
	}
	if rep.Stopped != "" && rep.Stopped != "exhausted" && rep.Stopped != "depth" {
		fmt.Printf("stopped: %s\n", rep.Stopped)
	}
	if len(rep.Findings) == 0 {
		fmt.Println("no errors found")
		return
	}
	for i, f := range rep.Findings {
		fmt.Printf("FINDING: %v\n", f.Err)
		if elf != nil {
			fmt.Printf("  in function: %s\n", guest.LocateFunc(elf, f.Err.PC))
		}
		fmt.Printf("  input: %s\n", cte.DescribeInput(b, f.Input))
		bf := br.Findings[i]
		status := "NOT reproduced by concrete replay — possible encoding bug"
		if bf.Confirmed {
			status = fmt.Sprintf("confirmed by concrete replay at depth %d", bf.Depth)
		}
		fmt.Printf("  %s\n", status)
	}
}

// jsonBMC is the machine-readable form of the BMC side of a run.
type jsonBMC struct {
	K           int            `json:"k"`
	Steps       uint64         `json:"steps"`
	PeakStates  int            `json:"peak_states"`
	Splits      int            `json:"splits"`
	Merges      int            `json:"merges"`
	SkewMerges  int            `json:"skew_merges"`
	Exits       int            `json:"exits"`
	Truncated   int            `json:"truncated"`
	Violations  int            `json:"violations"`
	Sites       int            `json:"sites"`
	Unknown     int            `json:"unknown"`
	Complete    bool           `json:"complete"`
	Exhausted   bool           `json:"exhausted"`
	Confirmed   int            `json:"confirmed"`
	Unsupported map[string]int `json:"unsupported,omitempty"`
}

// jsonProtocol is the machine-readable form of a stateful multi-packet
// campaign's protocol wiring.
type jsonProtocol struct {
	Packets   int   `json:"packets"`
	States    int   `json:"states"`
	StateAddr int64 `json:"state_addr"`
	PktCaps   []int `json:"pkt_caps,omitempty"`
}

// jsonFuzz is the machine-readable form of the hybrid side of a run.
type jsonFuzz struct {
	Execs          uint64  `json:"execs"`
	ExecsPerSec    float64 `json:"execs_per_sec"`
	TotalInstr     uint64  `json:"total_instr"`
	CorpusSize     int     `json:"corpus_size"`
	Edges          int     `json:"edges"`
	Pruned         uint64  `json:"pruned"`
	Injected       int     `json:"injected"`
	Escalations    int     `json:"escalations"`
	FlipsAttempted int     `json:"flips_attempted"`
	Solves         int     `json:"solves"`
	SkipInitInstrs uint64  `json:"skip_init_instrs"`
}

// cacheID derives the persisted cache's file stem from the target (an
// ELF argument's base name when there is none): same guest — same
// file.
func cacheID(t findfix.Target, args []string) string {
	id := t.String()
	if t.Prog == "" && len(args) == 1 {
		id = strings.TrimSuffix(filepath.Base(args[0]), ".elf")
	}
	var sb strings.Builder
	for _, r := range id {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.' {
			sb.WriteRune(r)
		} else {
			sb.WriteRune('_')
		}
	}
	return sb.String()
}

// jsonFinding is the machine-readable form of one finding. Concolic
// findings report the solved variable assignment (Input); fuzz findings
// report the raw input stream (Data, hex) and the execution index.
type jsonFinding struct {
	Error    string            `json:"error"`
	PC       uint32            `json:"pc"`
	Function string            `json:"function,omitempty"`
	Path     int               `json:"path,omitempty"`
	Exec     uint64            `json:"exec,omitempty"`
	Input    map[string]uint64 `json:"input,omitempty"`
	Data     string            `json:"data,omitempty"`
	Instrs   uint64            `json:"instrs"`
}

// jsonReport is the machine-readable form of cte.Report emitted by
// -json, for scripting and diffing EXPERIMENTS.md runs. The schema is
// documented in README.md ("JSON report schema"); fields are only ever
// added, never renamed.
type jsonReport struct {
	Program    string            `json:"program,omitempty"`
	Mode       string            `json:"mode"`
	Stopped    string            `json:"stopped,omitempty"`
	Workers    int               `json:"workers"`
	Paths      int               `json:"paths"`
	Queries    int               `json:"queries"`
	SolverTime float64           `json:"solver_time_sec"`
	WallTime   float64           `json:"wall_time_sec"`
	TotalInstr uint64            `json:"total_instr"`
	SatTCs     int               `json:"sat_tcs"`
	UnsatTCs   int               `json:"unsat_tcs"`
	UnknownTCs int               `json:"unknown_tcs"`
	Pruned     int               `json:"pruned"`
	Exhausted  bool              `json:"exhausted"`
	CoveredPCs int               `json:"covered_pcs"`
	Detectors  []string          `json:"detectors,omitempty"`
	Protocol   *jsonProtocol     `json:"protocol,omitempty"`
	Cache      *qcache.Stats     `json:"cache,omitempty"`
	PerWorker  []cte.WorkerStats `json:"per_worker,omitempty"`
	Fuzz       *jsonFuzz         `json:"fuzz,omitempty"`
	BMC        *jsonBMC          `json:"bmc,omitempty"`
	Obs        *obs.Snapshot     `json:"obs,omitempty"`
	Findings   []jsonFinding     `json:"findings"`
}

func emitJSON(b *smt.Builder, elf *relf.File, prog string, cfg cte.Config, rep *cte.Report) {
	jr := jsonReport{
		Program:    prog,
		Mode:       rep.Mode.String(),
		Stopped:    rep.Stopped,
		Workers:    rep.Workers,
		Paths:      rep.Paths,
		Queries:    rep.Queries,
		SolverTime: rep.SolverTime.Seconds(),
		WallTime:   rep.WallTime.Seconds(),
		TotalInstr: rep.TotalInstr,
		SatTCs:     rep.SatTCs,
		UnsatTCs:   rep.UnsatTCs,
		UnknownTCs: rep.UnknownTCs,
		Pruned:     rep.Pruned,
		Exhausted:  rep.Exhausted,
		CoveredPCs: len(rep.Covered),
		Cache:      rep.Cache,
		PerWorker:  rep.PerWorker,
		Obs:        rep.Obs,
		Detectors:  rep.Detectors,
		Findings:   []jsonFinding{},
	}
	if cfg.Protocol.StateAddr != 0 {
		jr.Protocol = &jsonProtocol{
			Packets:   cfg.Protocol.Packets,
			States:    cfg.Protocol.States,
			StateAddr: int64(cfg.Protocol.StateAddr),
			PktCaps:   cfg.Protocol.PktMax,
		}
	}
	if st := rep.Fuzz; st != nil {
		rate := 0.0
		if rep.WallTime > 0 {
			rate = float64(st.Execs) / rep.WallTime.Seconds()
		}
		jr.Fuzz = &jsonFuzz{
			Execs:          st.Execs,
			ExecsPerSec:    rate,
			TotalInstr:     st.TotalInstr,
			CorpusSize:     st.CorpusSize,
			Edges:          st.Edges,
			Pruned:         st.Pruned,
			Injected:       st.Injected,
			Escalations:    st.Escalations,
			FlipsAttempted: st.FlipsAttempted,
			Solves:         st.Solves,
			SkipInitInstrs: st.SkipInitInstrs,
		}
	}
	if br := rep.BMC; br != nil {
		confirmed := 0
		for _, f := range br.Findings {
			if f.Confirmed {
				confirmed++
			}
		}
		jr.BMC = &jsonBMC{
			K: br.K, Steps: br.Steps, PeakStates: br.PeakStates,
			Splits: br.Splits, Merges: br.Merges, SkewMerges: br.SkewMerges,
			Exits: br.Exits, Truncated: br.Truncated,
			Violations: br.Violations, Sites: br.Sites, Unknown: br.Unknown,
			Complete: br.Complete, Exhausted: br.Exhausted,
			Confirmed: confirmed, Unsupported: br.Unsupported,
		}
	}
	for _, f := range rep.Findings {
		jf := jsonFinding{
			Error:  f.Err.Error(),
			PC:     f.Err.PC,
			Path:   f.Path,
			Exec:   f.Exec,
			Instrs: f.Instrs,
		}
		if elf != nil {
			jf.Function = guest.LocateFunc(elf, f.Err.PC)
		}
		if len(f.Data) > 0 {
			jf.Data = hex.EncodeToString(f.Data)
		}
		if len(f.Input) > 0 {
			jf.Input = map[string]uint64{}
			for id, v := range f.Input {
				if id < b.NumVars() {
					jf.Input[b.VarName(id)] = v
				}
			}
		}
		jr.Findings = append(jr.Findings, jf)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&jr); err != nil {
		die(err)
	}
}

// die reports a usage/setup error (exit code 2 — distinct from exit 1,
// which means the run completed and reported findings).
func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cte:", err)
		os.Exit(2)
	}
}
