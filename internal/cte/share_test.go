package cte

import (
	"context"
	"strings"
	"sync"
	"testing"

	"rvcte/internal/obs"
)

// runCounters projects a Report onto its run counters: the fields a
// Session reads from its registry, minus the timing ones.
type runCounters struct {
	Paths, Queries, Sat, Unsat, Unknown, Forked, ForkRestarts, Pruned, Findings int
	Instr                                                                       uint64
	Execs, Replayed                                                             uint64
	Escalations, Flips, Solves                                                  int
}

func countersOf(rep *Report) runCounters {
	c := runCounters{
		Paths: rep.Paths, Queries: rep.Queries, Sat: rep.SatTCs, Unsat: rep.UnsatTCs,
		Unknown: rep.UnknownTCs, Forked: rep.Forked, ForkRestarts: rep.ForkRestarts,
		Pruned: rep.Pruned, Findings: len(rep.Findings), Instr: rep.TotalInstr,
	}
	if fs := rep.Fuzz; fs != nil {
		c.Execs, c.Replayed = fs.Execs, fs.ReplayedInstrs
		c.Escalations, c.Flips, c.Solves = fs.Escalations, fs.FlipsAttempted, fs.Solves
	}
	return c
}

// TestSessionsShareObs: sessions running concurrently on one obs.Obs
// each report exactly what they report when run alone on a fresh
// registry, and the shared registry's counters are the sums.
func TestSessionsShareObs(t *testing.T) {
	configs := []struct {
		src string
		cfg Config
	}{
		{bitstormSrc, Config{Workers: 1, Budget: Budget{MaxPaths: 400}}},
		{assertBugSrc, Config{Workers: 1, Budget: Budget{MaxPaths: 50}, Fork: ForkConfig{Enabled: true}}},
		{magicSrc, Config{Mode: ModeHybrid, Workers: 1, Seed: 1, StopOnError: true,
			Budget: Budget{MaxExecs: 50_000}, Fuzz: FuzzConfig{Batch: 200}}},
	}
	run := func(i int, o *obs.Obs) *Report {
		cfg := configs[i].cfg
		cfg.Obs = o
		return NewSession(snapshot(t, configs[i].src), cfg).Run(context.Background())
	}

	alone := make([]*Report, len(configs))
	sums := map[string]int64{}
	for i := range configs {
		alone[i] = run(i, obs.New())
		for name, v := range alone[i].Obs.Counters {
			sums[name] += v
		}
	}
	if c := countersOf(alone[2]); c.Escalations == 0 || c.Solves == 0 || c.Replayed == 0 || c.Instr <= c.Replayed {
		t.Fatalf("hybrid session did not exercise the concolic assist: %+v", c)
	}

	shared := obs.New()
	together := make([]*Report, len(configs))
	var wg sync.WaitGroup
	for i := range configs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = run(i, shared)
		}()
	}
	wg.Wait()

	for i := range configs {
		a, b := countersOf(alone[i]), countersOf(together[i])
		if a != b {
			t.Errorf("session %d: shared-registry report %+v, alone %+v", i, b, a)
		}
		if a.Paths+int(a.Execs) == 0 || a.Instr == 0 {
			t.Errorf("session %d ran nothing: %+v", i, a)
		}
	}
	got := shared.Snapshot().Counters
	for name, want := range sums {
		if strings.HasSuffix(name, "_ns") {
			continue // wall-clock time
		}
		if got[name] != want {
			t.Errorf("shared %s = %d, sessions alone sum to %d", name, got[name], want)
		}
	}
}

// TestEscalateCanceled: an escalation whose context is already done
// solves none of the flips it picked and leaves them un-attempted, so a
// later escalation of the same input retries them. FlipsAttempted
// counts the picked flips either way.
func TestEscalateCanceled(t *testing.T) {
	sess := NewSession(snapshot(t, magicSrc), Config{Mode: ModeHybrid, Workers: 1, Seed: 1})
	h := newHybrid(sess.snap, sess.cfg)
	reg := sess.reg

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if n := h.escalate(ctx, []byte{}, 0); n != 0 {
		t.Fatalf("canceled escalation injected %d inputs", n)
	}
	flips := reg.Counter("hybrid.flips_attempted").Value()
	if flips == 0 {
		t.Fatal("the replay offered no flip to pick")
	}
	if len(h.attempted) != 0 {
		t.Errorf("%d picked flips stay marked attempted after the cancellation", len(h.attempted))
	}
	if q, s := reg.Counter("smt.queries").Value(), reg.Counter("hybrid.solves").Value(); q != 0 || s != 0 {
		t.Errorf("canceled escalation solved: %d queries, %d solves", q, s)
	}

	if n := h.escalate(context.Background(), []byte{}, 0); n == 0 {
		t.Fatal("the retried escalation solved no flip")
	}
	if got := reg.Counter("hybrid.flips_attempted").Value(); got != 2*flips {
		t.Errorf("flips attempted = %d after the retry, want %d", got, 2*flips)
	}
	if len(h.attempted) != int(flips) {
		t.Errorf("%d flips marked attempted after the retry, want %d", len(h.attempted), flips)
	}
}
