package campaign

import (
	"context"
	"fmt"
	"testing"

	"rvcte/internal/cte"
	"rvcte/internal/obs"
)

// TestHybridCampaignTCPIP exercises the hybrid lease path: timeboxed
// fuzzing leases over the tcpip stack, corpus deltas flowing through
// the coordinator between leases, stop-on-error completion with a
// classified Table-2 bug.
func TestHybridCampaignTCPIP(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid fuzzing is slow")
	}
	co, err := NewCoordinator("", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Short stall windows keep the solver in the loop (the tcpip gates
	// are comparison-shaped — same knobs as the hybrid ablation). The
	// race detector slows concrete execution by an order of magnitude,
	// so the per-lease timebox widens accordingly.
	leaseMS := int64(2_000)
	if raceEnabled {
		leaseMS = 20_000
	}
	st, err := co.Create(Spec{
		Prog: "tcpip", Mode: "hybrid",
		FuzzLeaseMS: leaseMS, LeaseTTLMS: 600_000, StopOnError: true, Seed: 1,
		FuzzBatch: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	r, err := NewRunner(st.Spec)
	if err != nil {
		t.Fatal(err)
	}

	maxLeases := 30
	if raceEnabled {
		maxLeases = 10
	}
	for lease := 0; lease < maxLeases; lease++ {
		l, err := co.Lease(id, r.Request("hx"))
		if err != nil {
			t.Fatal(err)
		}
		r.Sync(l)
		if l.Done {
			break
		}
		if l.ID == "" || l.FuzzMS != leaseMS {
			t.Fatalf("hybrid lease shape: %+v", l)
		}
		res := r.Run(context.Background(), l)
		res.Worker = "hx"
		if _, err := co.Result(id, res); err != nil {
			t.Fatal(err)
		}
	}

	final, _ := co.Status(id)
	if final.State != StateDone {
		t.Fatalf("hybrid campaign state %q after lease budget (stats %+v)", final.State, final.Stats)
	}
	if final.Stats.Execs == 0 {
		t.Fatal("no fuzz executions accounted")
	}
	if final.Findings == 0 {
		t.Fatal("hybrid campaign found nothing")
	}
	fs, _, _ := co.FindingsSince(context.Background(), id, 0)
	f := fs[0]
	if f.Bug < 1 || f.Bug > 6 {
		t.Fatalf("tcpip finding not classified to a Table-2 bug: %+v", f)
	}
	if f.Kind == "" || f.Func == "" {
		t.Fatalf("finding missing classification: %+v", f)
	}
}

// TestHybridLeaseInstr: a hybrid lease reports every instruction its
// timebox simulated — fuzz executions plus concolic replays, the
// session's iss.instr change — and the coordinator's campaign total
// sums the leases.
func TestHybridLeaseInstr(t *testing.T) {
	co, err := NewCoordinator("", nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := co.Create(Spec{
		Prog: "tcpip", Mode: "hybrid", PktMax: 48,
		FuzzLeaseMS: 300, LeaseTTLMS: 600_000, Seed: 1,
		FuzzBatch: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	r, err := NewRunner(st.Spec)
	if err != nil {
		t.Fatal(err)
	}

	// The runner resumes a pre-built session wired to o, so the test
	// can read each lease's change of the ISS counters.
	o := obs.New()
	var sum, replayed uint64
	for lease := 0; lease < 8 && (lease < 2 || replayed == 0); lease++ {
		l, err := co.Lease(id, r.Request("hx"))
		if err != nil {
			t.Fatal(err)
		}
		r.Sync(l)
		if l.Done {
			t.Fatalf("campaign done after %d leases", lease)
		}
		if r.hyb == nil {
			cfg := r.hybridConfig(l)
			cfg.Obs = o
			r.hyb = cte.NewSession(r.built.Core, cfg)
		}
		before := o.Snapshot().Counters
		res := r.Run(context.Background(), l)
		after := o.Snapshot().Counters
		d := func(name string) int64 { return after[name] - before[name] }

		if res.Stats.Instr == 0 || int64(res.Stats.Instr) != d("iss.instr") {
			t.Errorf("lease %d: Stats.Instr = %d, simulated %d (replays %d)",
				lease, res.Stats.Instr, d("iss.instr"), d("hybrid.replayed_instr"))
		}
		if int64(res.Stats.Execs) != d("iss.execs") {
			t.Errorf("lease %d: Stats.Execs = %d, fuzz executions %d", lease, res.Stats.Execs, d("iss.execs"))
		}
		replayed += uint64(d("hybrid.replayed_instr"))
		sum += res.Stats.Instr
		res.Worker = "hx"
		if _, err := co.Result(id, res); err != nil {
			t.Fatal(err)
		}
	}
	if replayed == 0 {
		t.Fatal("no lease escalated: the replay share of Stats.Instr went unchecked")
	}
	final, _ := co.Status(id)
	if final.Stats.Instr != sum {
		t.Errorf("campaign Stats.Instr = %d, leases sum to %d", final.Stats.Instr, sum)
	}
}

// TestLeaseSeedPerLease pins the hybrid lease seeding: the fuzzing seed
// is a pure function of (campaign seed, lease ID), and distinct leases
// of one campaign, or one lease ID under distinct campaign seeds, fuzz
// with distinct seeds.
func TestLeaseSeedPerLease(t *testing.T) {
	if leaseSeed(1, "c1-l1") != leaseSeed(1, "c1-l1") {
		t.Fatal("lease seed is not deterministic")
	}
	seen := map[int64]string{}
	for _, seed := range []int64{0, 1, 2} {
		for i := 1; i <= 50; i++ {
			id := fmt.Sprintf("c1-l%d", i)
			s := leaseSeed(seed, id)
			key := fmt.Sprintf("seed %d lease %s", seed, id)
			if prev, dup := seen[s]; dup {
				t.Fatalf("%s and %s share fuzz seed %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
