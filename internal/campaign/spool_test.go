package campaign

import (
	"context"
	"sort"
	"testing"
)

// driveCampaign pumps one local worker (direct method calls, no HTTP)
// against co until the campaign leaves the running state or maxLeases
// have been executed; it returns the number of leases run.
func driveCampaign(t *testing.T, co *Coordinator, r *Runner, id, worker string, maxLeases int) int {
	t.Helper()
	n := 0
	for n < maxLeases {
		l, err := co.Lease(id, r.Request(worker))
		if err != nil {
			t.Fatal(err)
		}
		r.Sync(l)
		if l.Done {
			break
		}
		if l.ID == "" {
			t.Fatalf("single-worker campaign starved: %+v", l)
		}
		res := r.Run(context.Background(), l)
		res.Worker = worker
		if _, err := co.Result(id, res); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

func findingKeys(fs []WireFinding) []string {
	set := map[string]bool{}
	for _, f := range fs {
		set[f.Key()] = true
	}
	return sortedSet(set)
}

// TestSpoolKillResume is the crash-recovery contract: a coordinator
// killed mid-campaign — with results merged, frontier queued, and a
// lease in flight — is replaced by a fresh coordinator over the same
// spool directory, which resumes the campaign to completion and reaches
// exactly the finding set of an uninterrupted run, with no duplicated
// path records.
func TestSpoolKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("tcpip exploration is slow")
	}
	// PktMax 24 keeps the tcpip frontier small enough to exhaust in
	// well under a second while still reaching real findings; Batch 4
	// leaves the campaign genuinely mid-flight after three leases.
	spec := Spec{Prog: "tcpip", PktMax: 24, Batch: 4, LeaseTTLMS: 600_000}

	// Uninterrupted baseline campaign (no spool).
	base, err := NewCoordinator("", nil)
	if err != nil {
		t.Fatal(err)
	}
	bst, err := base.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewRunner(bst.Spec)
	if err != nil {
		t.Fatal(err)
	}
	driveCampaign(t, base, br, bst.Spec.ID, "base", 1000)
	baseSt, _ := base.Status(bst.Spec.ID)
	if baseSt.State != StateDone {
		t.Fatalf("baseline campaign state %q", baseSt.State)
	}
	baseFindings, _, _ := base.FindingsSince(context.Background(), bst.Spec.ID, 0)
	wantKeys := findingKeys(baseFindings)
	if len(wantKeys) == 0 {
		t.Fatal("baseline campaign found nothing — test is vacuous")
	}
	baseRecs, _ := base.Records(bst.Spec.ID)

	// Phase 1: spooled coordinator, killed mid-campaign.
	spool := t.TempDir()
	co1, err := NewCoordinator(spool, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := co1.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	r1, err := NewRunner(st.Spec)
	if err != nil {
		t.Fatal(err)
	}
	driveCampaign(t, co1, r1, id, "w1", 3)
	// Leave a lease in flight at the moment of the "kill": its inputs
	// must survive into the restarted coordinator.
	inFlight, err := co1.Lease(id, r1.Request("w1"))
	if err != nil || inFlight.ID == "" {
		t.Fatalf("in-flight lease: %+v err=%v", inFlight, err)
	}
	mid, _ := co1.Status(id)
	if mid.State != StateRunning || mid.Stats.Paths == 0 {
		t.Fatalf("campaign not genuinely mid-flight at kill: %+v", mid)
	}
	// co1 is never touched again: the process is "gone".

	// Phase 2: a fresh coordinator resumes from the spool.
	co2, err := NewCoordinator(spool, nil)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := co2.Status(id)
	if err != nil {
		t.Fatalf("campaign lost across restart: %v", err)
	}
	if st2.State != StateRunning {
		t.Fatalf("resumed state %q", st2.State)
	}
	if st2.Stats.Paths != mid.Stats.Paths {
		t.Fatalf("resumed paths %d != pre-kill %d", st2.Stats.Paths, mid.Stats.Paths)
	}
	if st2.Leases != 0 {
		t.Fatalf("dead worker's lease survived the restart: %d", st2.Leases)
	}
	// The in-flight lease's inputs are back in the frontier.
	if st2.Pending != mid.Pending+len(inFlight.Inputs) {
		t.Fatalf("in-flight inputs lost: pending %d, want %d+%d",
			st2.Pending, mid.Pending, len(inFlight.Inputs))
	}

	// A new worker process (fresh Runner: new builder, snapshot, cache)
	// drives the resumed campaign to completion.
	r2, err := NewRunner(st.Spec)
	if err != nil {
		t.Fatal(err)
	}
	driveCampaign(t, co2, r2, id, "w2", 1000)
	final, _ := co2.Status(id)
	if final.State != StateDone {
		t.Fatalf("resumed campaign state %q", final.State)
	}
	if final.Stats.Duplicates != 0 {
		t.Fatalf("%d duplicated path records after resume", final.Stats.Duplicates)
	}

	gotFindings, _, _ := co2.FindingsSince(context.Background(), id, 0)
	gotKeys := findingKeys(gotFindings)
	if !equalStrings(gotKeys, wantKeys) {
		t.Fatalf("finding sets differ after kill+resume:\n resumed:  %v\n baseline: %v", gotKeys, wantKeys)
	}

	// Semantic path-set parity with the uninterrupted campaign, and
	// every record key accepted exactly once.
	recs, _ := co2.Records(id)
	keys := map[string]bool{}
	gotSet := map[string]bool{}
	for _, r := range recs {
		if keys[r.Key] {
			t.Fatalf("path key %q recorded twice", r.Key)
		}
		keys[r.Key] = true
		gotSet[r.Semantic()] = true
	}
	wantSet := map[string]bool{}
	for _, r := range baseRecs {
		wantSet[r.Semantic()] = true
	}
	if !equalStrings(sortedSet(gotSet), sortedSet(wantSet)) {
		t.Fatalf("semantic path sets differ: resumed %d, baseline %d", len(gotSet), len(wantSet))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
