package rvcte

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"rvcte/internal/cte"
	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/obs"
	"rvcte/internal/smt"
)

// exploreOrdered runs a bounded deterministic exploration (Workers=1)
// of a guest program and returns the ordered per-path records plus the
// report. With fork on, each path resumes its divergence checkpoint;
// records still carry the full-path instruction count (InstrCount is
// absolute across a fork), so any prefix-replay divergence is visible.
func exploreOrdered(tb testing.TB, p guest.Program, fork bool, maxPaths int) ([]string, *cte.Report) {
	tb.Helper()
	b := smt.NewBuilder()
	core, _, err := guest.NewCore(b, p)
	if err != nil {
		tb.Fatal(err)
	}
	eng := cte.NewSession(core, cte.Config{Workers: 1, Budget: cte.Budget{MaxPaths: maxPaths}, Fork: cte.ForkConfig{Enabled: fork}})
	var recs []string
	eng.OnPath = func(_ int, c *iss.Core) {
		recs = append(recs, fmt.Sprintf("in=%s exit=%d err=%v out=%q instr=%d",
			cte.DescribeInput(b, c.Input), c.ExitCode, c.Err, c.Output, c.InstrCount))
	}
	return recs, eng.Run(context.Background())
}

// TestForkEquivalenceDeepGuests is the acceptance gate for state
// forking on the paper's real workloads: on storm-s and on the tcpip
// stack the forked exploration must produce the bit-identical ordered
// path sequence, the same findings and the same solver statistics as
// the restart-only baseline — while re-executing strictly fewer
// instructions.
func TestForkEquivalenceDeepGuests(t *testing.T) {
	storm, ok := guest.BenchProgram("storm-s")
	if !ok {
		t.Fatal("storm-s missing")
	}
	guests := []struct {
		name     string
		p        guest.Program
		maxPaths int
	}{
		{"storm-s", withDefaults(storm), 60},
		{"tcpip", withDefaults(guest.TCPIPProgram(0, 64)), 60},
		{"tcpip-allfixed", withDefaults(guest.TCPIPProgram(0x3f, 64)), 40},
	}
	for _, g := range guests {
		t.Run(g.name, func(t *testing.T) {
			forkRecs, forkRep := exploreOrdered(t, g.p, true, g.maxPaths)
			restRecs, restRep := exploreOrdered(t, g.p, false, g.maxPaths)

			if len(forkRecs) != len(restRecs) {
				t.Fatalf("path counts: fork %d restart %d", len(forkRecs), len(restRecs))
			}
			for i := range forkRecs {
				if forkRecs[i] != restRecs[i] {
					t.Fatalf("path %d diverges:\n fork:    %s\n restart: %s",
						i, forkRecs[i], restRecs[i])
				}
			}
			if forkRep.Queries != restRep.Queries ||
				forkRep.SatTCs != restRep.SatTCs ||
				forkRep.UnsatTCs != restRep.UnsatTCs {
				t.Errorf("solver stats diverge: fork %d/%d/%d restart %d/%d/%d",
					forkRep.Queries, forkRep.SatTCs, forkRep.UnsatTCs,
					restRep.Queries, restRep.SatTCs, restRep.UnsatTCs)
			}
			if len(forkRep.Findings) != len(restRep.Findings) {
				t.Fatalf("findings: fork %d restart %d",
					len(forkRep.Findings), len(restRep.Findings))
			}
			for i := range forkRep.Findings {
				ff, rf := forkRep.Findings[i], restRep.Findings[i]
				if ff.Err.Kind != rf.Err.Kind || ff.Err.PC != rf.Err.PC {
					t.Errorf("finding %d diverges: fork %v restart %v", i, ff.Err, rf.Err)
				}
			}
			if forkRep.Forked == 0 {
				t.Error("fork mode never resumed a checkpoint")
			}
			if forkRep.TotalInstr >= restRep.TotalInstr {
				t.Errorf("no re-execution saved: fork %d restart %d instrs",
					forkRep.TotalInstr, restRep.TotalInstr)
			}
			t.Logf("%s: %d paths, instr fork=%d restart=%d (%.1fx), forked=%d fallback=%d",
				g.name, forkRep.Paths, forkRep.TotalInstr, restRep.TotalInstr,
				float64(restRep.TotalInstr)/float64(forkRep.TotalInstr),
				forkRep.Forked, forkRep.ForkRestarts)
		})
	}
}

// BenchmarkForkVsRestart measures the wall-clock effect of state forking
// on the deep guests (make bench-fork): identical explorations, one
// resuming checkpoints, one re-executing every path prefix.
func BenchmarkForkVsRestart(b *testing.B) {
	storm, _ := guest.BenchProgram("storm-s")
	guests := []struct {
		name     string
		p        guest.Program
		maxPaths int
	}{
		{"storm-s", withDefaults(storm), 60},
		{"tcpip", withDefaults(guest.TCPIPProgram(0, 64)), 60},
	}
	modes := []struct {
		name string
		opt  func(*cte.Config)
	}{
		{"fork", func(o *cte.Config) { o.Fork.Enabled = true }},
		{"fork-min2k", func(o *cte.Config) { o.Fork.Enabled = true; o.Fork.MinPrefix = 2000 }},
		{"restart", func(o *cte.Config) {}},
	}
	for _, g := range guests {
		for _, m := range modes {
			b.Run(g.name+"/"+m.name, func(b *testing.B) {
				var instr uint64
				for i := 0; i < b.N; i++ {
					bld := smt.NewBuilder()
					core, _, err := guest.NewCore(bld, g.p)
					if err != nil {
						b.Fatal(err)
					}
					opt := cte.Config{Workers: 1, Budget: cte.Budget{MaxPaths: g.maxPaths}}
					m.opt(&opt)
					rep := cte.NewSession(core, opt).Run(context.Background())
					instr += rep.TotalInstr
				}
				b.ReportMetric(float64(instr)/float64(b.N), "instr/explore")
			})
		}
	}
}

// BenchmarkCheckpointMemory measures what a live fork checkpoint costs
// (make bench-fork): a one-worker, 300-path exploration of the
// three-packet session guest with bugs 7-9 patched, every detector, the
// coverage strategy and forking at a 2 000-instruction minimum prefix.
// At the last path it reports the live heap the run added, per queued
// checkpoint reference (the cte.fork_live gauge).
func BenchmarkCheckpointMemory(b *testing.B) {
	const maxPaths = 300
	p := guest.TCPIPSessionProgram(1<<6|1<<7|1<<8, nil, 3)
	var perCkpt, live, refs float64
	for i := 0; i < b.N; i++ {
		bld := smt.NewBuilder()
		core, elf, err := guest.NewCore(bld, p)
		if err != nil {
			b.Fatal(err)
		}
		addr, ok := elf.Symbol(p.Proto.StateSym)
		if !ok {
			b.Fatalf("state symbol %q missing", p.Proto.StateSym)
		}
		o := obs.New()
		eng := cte.NewSession(core, cte.Config{
			Workers:   1,
			Budget:    cte.Budget{MaxPaths: maxPaths},
			Detectors: []string{"all"},
			Explore:   cte.ExploreConfig{Strategy: cte.Coverage},
			Fork:      cte.ForkConfig{Enabled: true, MinPrefix: 2000},
			Protocol: cte.ProtocolConfig{Packets: p.Proto.Pkts, PktMax: p.Proto.Caps,
				StateAddr: addr, States: p.Proto.States},
			Obs: o,
		})
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		eng.OnPath = func(path int, _ *iss.Core) {
			if path != maxPaths-1 {
				return
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			n := o.Registry().Gauge("cte.fork_live").Value()
			if n == 0 {
				b.Fatal("no checkpoint is live at the last path")
			}
			live += float64(ms.HeapAlloc - base)
			refs += float64(n)
			perCkpt += float64(ms.HeapAlloc-base) / float64(n)
		}
		if rep := eng.Run(context.Background()); rep.Paths != maxPaths || len(rep.Findings) != 0 {
			b.Fatalf("want %d paths and no findings, got %d paths, %d findings", maxPaths, rep.Paths, len(rep.Findings))
		}
	}
	b.ReportMetric(perCkpt/float64(b.N), "B/ckpt")
	b.ReportMetric(live/float64(b.N)/(1<<20), "live-MB")
	b.ReportMetric(refs/float64(b.N), "ckpts")
}
