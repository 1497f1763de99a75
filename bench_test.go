package rvcte

// Benchmark harness regenerating the paper's evaluation (Tables 1 and 2,
// Figure 4) plus the ablations called out in DESIGN.md. Run:
//
//	go test -run 'TestTable|TestFigure' -v .
//	go test -bench=. -benchmem .
//
// Absolute numbers differ from the paper (different host, simulator
// substrate, scaled workloads); the reproduction target is the shape:
// VP < CTE << S2E-proxy on concrete runs, large CTE speedups on symbolic
// runs, and the six TCP/IP bugs found in order of increasing depth.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rvcte/internal/cte"
	"rvcte/internal/findfix"
	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/nestedvm"
	"rvcte/internal/qcache"
	"rvcte/internal/smt"
	"rvcte/internal/vp"
)

// table1Concrete lists the single-path benchmark programs (upper half of
// Table 1). The sha512 row is reproduced with SHA-256 (32-bit substrate;
// see DESIGN.md).
func table1Concrete() []guest.Program {
	var progs []guest.Program
	for _, name := range []string{"qsort", "sha256", "dhrystone"} {
		p, _ := guest.BenchProgram(name)
		progs = append(progs, p)
	}
	progs = append(progs, guest.FreeRTOSSensorProgram(false, 3))
	return progs
}

// table1Symbolic lists the multi-path benchmarks (lower half of Table 1).
func table1Symbolic() []struct {
	prog     guest.Program
	maxPaths int
} {
	q, _ := guest.BenchProgram("qsort-s")
	c, _ := guest.BenchProgram("counter-s")
	f, _ := guest.BenchProgram("fibonacci-s")
	return []struct {
		prog     guest.Program
		maxPaths int
	}{
		{c, 1500},
		{f, 200},
		{q, 600},
		{func() guest.Program {
			p := guest.FreeRTOSSensorProgram(true, 2)
			p.Name = "freertos-sensor-s"
			return p
		}(), 60},
	}
}

// runOnVP executes a program on the concrete VP baseline.
func runOnVP(tb testing.TB, p guest.Program) (time.Duration, uint64, bool) {
	elf, err := guest.Build(p)
	if err != nil {
		tb.Fatal(err)
	}
	cpu := vp.New(vp.Config{
		RamBase: p.RamBase, RamSize: p.RamSize,
		StackTop: p.RamBase + p.RamSize - 16384,
		MaxInstr: 500_000_000,
	})
	vp.AttachStandardPeripherals(cpu)
	if err := cpu.LoadELF(elf); err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	cpu.Run(0)
	if cpu.Err != nil {
		tb.Fatalf("%s on VP: %v", p.Name, cpu.Err)
	}
	return time.Since(start), cpu.InstrCount, cpu.Exited
}

// runOnCTE executes a program single-path on the concolic ISS.
func runOnCTE(tb testing.TB, p guest.Program, nested bool) (time.Duration, uint64) {
	core, _, err := guest.NewCore(smt.NewBuilder(), p)
	if err != nil {
		tb.Fatal(err)
	}
	if nested {
		nestedvm.Attach(core)
	}
	start := time.Now()
	core.Run(0)
	if core.Err != nil {
		tb.Fatalf("%s: %v", p.Name, core.Err)
	}
	return time.Since(start), core.InstrCount
}

// explore runs full concolic exploration, optionally through the nested
// (S2E-proxy) interpreter. workers selects the exploration pool size
// (1 = one worker, the paper's deterministic path order).
func explore(tb testing.TB, p guest.Program, maxPaths int, nested bool, workers int) (*cte.Report, time.Duration) {
	core, _, err := guest.NewCore(smt.NewBuilder(), p)
	if err != nil {
		tb.Fatal(err)
	}
	if nested {
		nestedvm.Attach(core)
	}
	start := time.Now()
	rep := cte.NewSession(core, cte.Config{Workers: workers, Budget: cte.Budget{MaxPaths: maxPaths}}).Run(context.Background())
	return rep, time.Since(start)
}

// defaults ensures programs carry their default memory map before use
// outside guest.NewCore.
func withDefaults(p guest.Program) guest.Program {
	if p.RamBase == 0 {
		p.RamBase = 0x80000000
	}
	if p.RamSize == 0 {
		p.RamSize = 4 << 20
	}
	return p
}

// TestTable1 regenerates Table 1: simulation performance of the
// concrete VP, the generic-engine proxy (S2E) and CTE on concrete
// benchmarks, plus CTE exploration statistics on symbolic benchmarks.
func TestTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation is slow")
	}
	fmt.Printf("\n%-20s %12s %9s %9s %9s %9s %8s %8s %9s\n",
		"Benchmark", "#instr", "VP(s)", "S2E(s)", "CTE(s)", "FoI-S2E", "stime", "#paths", "#queries")

	for _, p := range table1Concrete() {
		p = withDefaults(p)
		vpTime, _, _ := runOnVP(t, p)
		s2eTime, _ := runOnCTE(t, p, true)
		cteTime, instr := runOnCTE(t, p, false)
		foi := float64(s2eTime) / float64(cteTime)
		fmt.Printf("%-20s %12d %9.3f %9.3f %9.3f %8.1fx %8s %8d %9s\n",
			p.Name, instr, vpTime.Seconds(), s2eTime.Seconds(), cteTime.Seconds(), foi, "/", 1, "/")
		if vpTime > cteTime {
			t.Logf("note: %s: VP (%v) not faster than CTE (%v) on this host", p.Name, vpTime, cteTime)
		}
		if foi < 1.5 {
			t.Errorf("%s: S2E proxy should be clearly slower than CTE (FoI %.2f)", p.Name, foi)
		}
	}

	for _, row := range table1Symbolic() {
		p := withDefaults(row.prog)
		s2eRep, s2eTime := explore(t, p, row.maxPaths, true, 1)
		cteRep, cteTime := explore(t, p, row.maxPaths, false, 1)
		if cteRep.Paths != s2eRep.Paths {
			t.Errorf("%s: path mismatch cte=%d s2e=%d", p.Name, cteRep.Paths, s2eRep.Paths)
		}
		foi := float64(s2eTime) / float64(cteTime)
		fmt.Printf("%-20s %12d %9s %9.3f %9.3f %8.1fx %8.2f %8d %9d\n",
			p.Name+"/s", cteRep.TotalInstr, "/", s2eTime.Seconds(), cteTime.Seconds(), foi,
			cteRep.SolverTime.Seconds(), cteRep.Paths, cteRep.Queries)
		if len(cteRep.Findings) != 0 {
			t.Errorf("%s: unexpected findings %v", p.Name, cteRep.Findings)
		}
	}
}

// TestTable2 regenerates Table 2: the six FreeRTOS-TCP/IP heap overflow
// bugs found by the find-fix-rerun workflow, with per-bug statistics,
// then the clean run of the fully patched stack.
func TestTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation is slow")
	}
	rows, err := findfix.Run(0, 7, findfix.Local(findfix.Target{Prog: "tcpip", PktMax: 64},
		func(*smt.Builder, int) cte.Config {
			return cte.Config{StopOnError: true, Budget: cte.Budget{MaxPaths: 10000}}
		}))
	fmt.Println()
	findfix.Print(os.Stdout, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Errorf("clean after %d bugs, want 6", len(rows)-1)
	}
}

// TestFigure4Paths replays the paper's Fig. 4 narrative on the sensor
// system: the empty input I0 is pruned at the sensor-range assume; a
// later input passes the assume and emits an assert TC; solving it gives
// the I3-style input whose data value underflows and violates the
// assertion.
func TestFigure4Paths(t *testing.T) {
	b := smt.NewBuilder()
	core, _, err := guest.NewCore(b, guest.SensorProgram(false))
	if err != nil {
		t.Fatal(err)
	}

	type pathInfo struct {
		input  string
		result string
	}
	var paths []pathInfo
	eng := cte.NewSession(core, cte.Config{StopOnError: true, Budget: cte.Budget{MaxPaths: 64}})
	eng.OnPath = func(_ int, c *iss.Core) {
		r := "completed"
		if c.Err != nil {
			r = c.Err.Kind.String()
		}
		paths = append(paths, pathInfo{cte.DescribeInput(b, c.Input), r})
	}
	rep := eng.Run(context.Background())

	// I0: empty input -> pruned inside the peripheral's range assume.
	if len(paths) == 0 || paths[0].result != iss.ErrAssumeFail.String() {
		t.Fatalf("first path should be assume-pruned, got %+v", paths)
	}
	// The final path is the assertion violation.
	last := paths[len(paths)-1]
	if last.result != iss.ErrAssertFail.String() {
		t.Fatalf("last path should violate the assertion, got %+v", last)
	}
	// And the violating input satisfies the Fig. 4 constraints:
	// f >= MIN (16) so the buggy rewrite to 17 fires, and d - 17 wraps.
	f := rep.Findings[0]
	fv := uint32(b.Value(f.Input, "f[0]") | b.Value(f.Input, "f[1]")<<8 |
		b.Value(f.Input, "f[2]")<<16 | b.Value(f.Input, "f[3]")<<24)
	dv := uint32(b.Value(f.Input, "d[0]") | b.Value(f.Input, "d[1]")<<8 |
		b.Value(f.Input, "d[2]")<<16 | b.Value(f.Input, "d[3]")<<24)
	if fv < 16 {
		t.Errorf("I3 filter %d must be >= 16", fv)
	}
	if dv < 16 || dv > 64 {
		t.Errorf("I3 data %d must lie in the sensor range", dv)
	}
	if dv-17 <= 64 {
		t.Errorf("I3 data %d must make data-17 wrap beyond the range", dv)
	}
	t.Logf("Fig. 4 reproduced: %d paths, I3 = {f=%d, d=%d}", rep.Paths, fv, dv)
}

// --- testing.B benchmarks, one per table/figure ---

// BenchmarkTable1Concrete measures each simulator on each concrete
// benchmark (the upper half of Table 1).
func BenchmarkTable1Concrete(b *testing.B) {
	for _, p := range table1Concrete() {
		p := withDefaults(p)
		b.Run(p.Name+"/vp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnVP(b, p)
			}
		})
		b.Run(p.Name+"/cte", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnCTE(b, p, false)
			}
		})
		b.Run(p.Name+"/s2e", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnCTE(b, p, true)
			}
		})
	}
}

// BenchmarkTable1Symbolic measures full exploration on the symbolic
// benchmarks (lower half of Table 1).
func BenchmarkTable1Symbolic(b *testing.B) {
	for _, row := range table1Symbolic() {
		p := withDefaults(row.prog)
		b.Run(p.Name+"/cte", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				explore(b, p, row.maxPaths, false, 1)
			}
		})
		b.Run(p.Name+"/s2e", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				explore(b, p, row.maxPaths, true, 1)
			}
		})
	}
}

// BenchmarkTable2FirstBug measures the time to the first TCP/IP finding
// (Table 2, error 1).
func BenchmarkTable2FirstBug(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core, _, err := guest.NewCore(smt.NewBuilder(), guest.TCPIPProgram(0, 64))
		if err != nil {
			b.Fatal(err)
		}
		rep := cte.NewSession(core, cte.Config{StopOnError: true, Budget: cte.Budget{MaxPaths: 400}}).Run(context.Background())
		if len(rep.Findings) == 0 {
			b.Fatal("bug 1 not found")
		}
	}
}

// BenchmarkParallelExploreTCPIP measures path throughput of the worker
// pool on the TCP/IP workload (all bugs fixed, fixed path budget, no
// early stop). Compare the j1 and j4 variants: ns/op is the cost of the
// same 200-path exploration, so on a >= 4-core host j4 should explore at
// a multiple of the j1 throughput (paths/s is reported explicitly).
// The snapshot is built once per variant; each iteration explores
// fresh clones of it, exactly like the -j flag of cmd/cte.
func BenchmarkParallelExploreTCPIP(b *testing.B) {
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			core, _, err := guest.NewCore(smt.NewBuilder(), guest.TCPIPProgram(0x3f, 64))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			paths := 0
			for i := 0; i < b.N; i++ {
				rep := cte.NewSession(core, cte.Config{Workers: j, Budget: cte.Budget{MaxPaths: 200}}).Run(context.Background())
				paths += rep.Paths
			}
			b.ReportMetric(float64(paths)/b.Elapsed().Seconds(), "paths/s")
		})
	}
}

// BenchmarkParallelExploreCounter is the same comparison on the small
// counter-s benchmark (solver-light, ISS-dominated — the paper's
// Table 1 observation that per-path ISS execution dominates wall time).
func BenchmarkParallelExploreCounter(b *testing.B) {
	p, _ := guest.BenchProgram("counter-s")
	p = withDefaults(p)
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			core, _, err := guest.NewCore(smt.NewBuilder(), p)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			paths := 0
			for i := 0; i < b.N; i++ {
				rep := cte.NewSession(core, cte.Config{Workers: j, Budget: cte.Budget{MaxPaths: 1500}}).Run(context.Background())
				paths += rep.Paths
			}
			b.ReportMetric(float64(paths)/b.Elapsed().Seconds(), "paths/s")
		})
	}
}

// BenchmarkQueryCacheExplore measures end-to-end exploration of the
// branch-storm benchmark with the query cache off, cold and warm
// (primed from a persisted cache file, the -cache-dir workflow).
// Every iteration builds a fresh system — builder, core and cache are
// all per-iteration, so "warm" measures the real warm-start cost
// including Load and model hydration.
func BenchmarkQueryCacheExplore(b *testing.B) {
	p, _ := guest.BenchProgram("storm-s")
	p = withDefaults(p)

	run := func(b *testing.B, cacheFile string, load bool) *cte.Report {
		bld := smt.NewBuilder()
		core, _, err := guest.NewCore(bld, p)
		if err != nil {
			b.Fatal(err)
		}
		var qc *qcache.Cache
		if cacheFile != "" {
			qc = qcache.New(bld, qcache.Options{})
			if load {
				if err := qc.Load(cacheFile); err != nil {
					b.Fatal(err)
				}
			}
		}
		rep := cte.NewSession(core, cte.Config{Workers: 1, Budget: cte.Budget{MaxPaths: 2000}, Cache: cte.CacheConfig{Queries: qc}}).Run(context.Background())
		if cacheFile != "" && !load {
			if err := qc.Save(cacheFile); err != nil {
				b.Fatal(err)
			}
		}
		return rep
	}

	b.Run("off", func(b *testing.B) {
		queries := 0
		for i := 0; i < b.N; i++ {
			queries += run(b, "", false).Queries
		}
		b.ReportMetric(float64(queries)/float64(b.N), "queries/explore")
	})
	b.Run("cold", func(b *testing.B) {
		cacheFile := filepath.Join(b.TempDir(), "storm.qcache")
		queries := 0
		for i := 0; i < b.N; i++ {
			queries += run(b, cacheFile, false).Queries
		}
		b.ReportMetric(float64(queries)/float64(b.N), "queries/explore")
	})
	b.Run("warm", func(b *testing.B) {
		cacheFile := filepath.Join(b.TempDir(), "storm.qcache")
		run(b, cacheFile, false) // prime the cache file once
		b.ResetTimer()
		queries := 0
		for i := 0; i < b.N; i++ {
			queries += run(b, cacheFile, true).Queries
		}
		b.ReportMetric(float64(queries)/float64(b.N), "queries/explore")
	})
}

// BenchmarkFigure4Sensor measures full exploration of the sensor example.
func BenchmarkFigure4Sensor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core, _, err := guest.NewCore(smt.NewBuilder(), guest.SensorProgram(false))
		if err != nil {
			b.Fatal(err)
		}
		rep := cte.NewSession(core, cte.Config{StopOnError: true, Budget: cte.Budget{MaxPaths: 64}}).Run(context.Background())
		if len(rep.Findings) == 0 {
			b.Fatal("sensor bug not found")
		}
	}
}
