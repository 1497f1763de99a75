package campaign

import (
	"context"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"rvcte/internal/cte"
	"rvcte/internal/findfix"
	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

// singleSessionSemantics explores prog exhaustively in one process and
// returns the sorted set of semantic path records (the parity baseline).
func singleSessionSemantics(t *testing.T, prog string) []string {
	t.Helper()
	g, err := findfix.Target{Prog: prog}.Build(smt.NewBuilder())
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	sess := cte.NewSession(g.Core, cte.Config{})
	sess.OnPath = func(_ int, c *iss.Core) {
		rec := PathRecord{Exit: c.ExitCode, Output: string(c.Output)}
		if c.Err != nil {
			rec.Err = c.Err.Error()
		}
		set[rec.Semantic()] = true
	}
	rep := sess.Run(context.Background())
	if !rep.Exhausted {
		t.Fatalf("baseline did not exhaust: stopped=%s paths=%d", rep.Stopped, rep.Paths)
	}
	return sortedSet(set)
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestCampaignParityStormS is the deterministic-merge contract of the
// campaign service: exploring storm-s through a coordinator and 2 HTTP
// worker processes reaches exactly the semantic path set of one
// uninterrupted single-process session, with zero duplicated path
// records across workers (semantic-set parity, the same comparison the
// parallel-mode fork tests use — raw assignments are
// solver-history-dependent).
func TestCampaignParityStormS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker exploration is slow")
	}
	want := singleSessionSemantics(t, "storm-s")

	co, err := NewCoordinator("", nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(co, nil))
	defer ts.Close()
	cl := NewClient(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := cl.Create(ctx, Spec{Prog: "storm-s", Batch: 8, LeaseTTLMS: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID

	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	for i := 0; i < 2; i++ {
		go RunWorker(wctx, WorkerOptions{Server: ts.URL, ID: []string{"alpha", "beta"}[i], Poll: 20 * time.Millisecond})
	}

	final, err := cl.WaitDone(ctx, id, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	stopWorkers()
	if final.State != StateDone {
		t.Fatalf("campaign state %q", final.State)
	}
	if final.Stats.Duplicates != 0 {
		t.Fatalf("%d duplicated path records across workers", final.Stats.Duplicates)
	}
	if final.Pending != 0 || final.Leases != 0 {
		t.Fatalf("campaign done with pending=%d leases=%d", final.Pending, final.Leases)
	}

	recs, err := co.Records(id)
	if err != nil {
		t.Fatal(err)
	}
	if final.Stats.Paths != len(recs) {
		t.Fatalf("stats.Paths=%d but %d records", final.Stats.Paths, len(recs))
	}
	keys := map[string]bool{}
	set := map[string]bool{}
	for _, r := range recs {
		if keys[r.Key] {
			t.Fatalf("path key %q recorded twice", r.Key)
		}
		keys[r.Key] = true
		set[r.Semantic()] = true
	}
	got := sortedSet(set)

	if len(got) != len(want) {
		t.Fatalf("semantic sets differ: campaign %d, single-session %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("semantic record diverges:\n campaign: %s\n single:   %s", got[i], want[i])
		}
	}
}
