package campaign

import (
	"context"
	"testing"
)

// TestSessionCampaignDeepBug runs a hybrid campaign over the stateful
// tcpip-session guest: the Spec carries the multi-packet shape (depth,
// per-packet caps) and the detector set over the wire, the runner
// resolves the protocol-state symbol locally, and the campaign stops on
// a classified deep bug (7-9) that only manifests at packet depth 3.
func TestSessionCampaignDeepBug(t *testing.T) {
	if testing.Short() {
		t.Skip("stateful hybrid fuzzing is slow")
	}
	if raceEnabled {
		// The race detector slows concrete execution ~10x; reaching a
		// depth-3 bug would need more lease budget than the package
		// timeout allows, and this test adds discovery depth, not
		// concurrency coverage (the other campaign tests race-test the
		// lease protocol).
		t.Skip("deep-session discovery is too slow under the race detector")
	}
	co, err := NewCoordinator("", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wider timeboxes than the single-packet hybrid campaign: the
	// session guest's input is three packets, so each execution is
	// longer and the coverage map (state-banked) saturates later.
	leaseMS := int64(20_000)
	st, err := co.Create(Spec{
		Prog: "tcpip-session", Pkts: 3, Detectors: []string{"all"},
		Mode:        "hybrid",
		FuzzLeaseMS: leaseMS, LeaseTTLMS: 600_000, StopOnError: true, Seed: 1,
		FuzzBatch: 200, DryEscalations: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	r, err := NewRunner(st.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.built.Proto.StateAddr == 0 || r.built.Proto.States != 4 {
		t.Fatalf("runner did not resolve the protocol-state wiring: %+v", r.built.Proto)
	}

	maxLeases := 12
	for lease := 0; lease < maxLeases; lease++ {
		l, err := co.Lease(id, r.Request("sx"))
		if err != nil {
			t.Fatal(err)
		}
		r.Sync(l)
		if l.Done {
			break
		}
		res := r.Run(context.Background(), l)
		res.Worker = "sx"
		if _, err := co.Result(id, res); err != nil {
			t.Fatal(err)
		}
	}

	final, _ := co.Status(id)
	if final.State != StateDone {
		t.Fatalf("session campaign state %q after lease budget (stats %+v)", final.State, final.Stats)
	}
	if final.Findings == 0 {
		t.Fatal("session campaign found nothing")
	}
	fs, _, _ := co.FindingsSince(context.Background(), id, 0)
	f := fs[0]
	if f.Bug < 7 || f.Bug > 9 {
		t.Fatalf("session finding not classified to a deep bug: %+v", f)
	}
	if f.Kind == "" || f.Func == "" {
		t.Fatalf("finding missing classification: %+v", f)
	}
	t.Logf("campaign: bug %d (%s in %s) after %d execs", f.Bug, f.Kind, f.Func, final.Stats.Execs)
}
