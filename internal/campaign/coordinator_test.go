package campaign

import (
	"context"
	"testing"
	"time"

	"rvcte/internal/cte"
	"rvcte/internal/obs"
)

// fakeClock drives the coordinator's lease expiry deterministically.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newTestCoordinator(t *testing.T) (*Coordinator, *fakeClock) {
	t.Helper()
	co, err := NewCoordinator("", nil)
	if err != nil {
		t.Fatal(err)
	}
	fc := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	co.now = fc.now
	return co, fc
}

func wireInput(val uint64) cte.WireInput {
	return cte.WireInput{Vars: []cte.WireVar{{Name: "x", Width: 8, Val: val}}, Bound: 1}
}

// TestLeaseExpiryRedelivery: a worker that stops heartbeating loses its
// lease — the inputs are re-leased to another worker — and its late
// result is accepted but fully deduplicated (zero duplicate records in
// the campaign's record set).
func TestLeaseExpiryRedelivery(t *testing.T) {
	co, fc := newTestCoordinator(t)
	st, err := co.Create(Spec{Prog: "counter-s", Batch: 4, LeaseTTLMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID

	l1, err := co.Lease(id, LeaseRequest{Worker: "a"})
	if err != nil || l1.ID == "" || len(l1.Inputs) != 1 {
		t.Fatalf("first lease: %+v err=%v", l1, err)
	}
	rootKey := l1.Inputs[0].Key()

	// Within TTL nothing is re-assignable: a second worker gets no work.
	l2, _ := co.Lease(id, LeaseRequest{Worker: "b"})
	if l2.ID != "" || l2.Done {
		t.Fatalf("lease while another holds the frontier: %+v", l2)
	}

	// Past the TTL the batch is reclaimed and re-leased.
	fc.advance(2 * time.Second)
	l3, _ := co.Lease(id, LeaseRequest{Worker: "b"})
	if l3.ID == "" || len(l3.Inputs) != 1 || l3.Inputs[0].Key() != rootKey {
		t.Fatalf("expired batch not re-leased: %+v", l3)
	}
	if got, _ := co.Status(id); got.Stats.Expired != 1 {
		t.Fatalf("expired count = %d want 1", got.Stats.Expired)
	}
	// The original worker's heartbeat now says: abandon it.
	hb, _ := co.Heartbeat(id, l1.ID)
	if !hb.Cancel {
		t.Fatal("heartbeat on an expired lease must cancel")
	}

	// Worker b returns the result: one record, one child.
	child := wireInput(7)
	if _, err := co.Result(id, Result{Lease: l3.ID, Worker: "b",
		Records:  []PathRecord{{Key: rootKey, Exit: 0}},
		Frontier: []cte.WireInput{child},
	}); err != nil {
		t.Fatal(err)
	}
	// Worker a comes back late with the same record: dropped, not doubled.
	rr, err := co.Result(id, Result{Lease: l1.ID, Worker: "a",
		Records:  []PathRecord{{Key: rootKey, Exit: 0}},
		Frontier: []cte.WireInput{child},
	})
	if err != nil || !rr.Accepted || rr.Duplicates != 1 {
		t.Fatalf("late result: %+v err=%v", rr, err)
	}
	got, _ := co.Status(id)
	if got.Stats.Paths != 1 || got.Stats.Duplicates != 1 {
		t.Fatalf("stats after late result: %+v", got.Stats)
	}
	if got.Pending != 1 {
		t.Fatalf("child enqueued %d times, want exactly 1", got.Pending)
	}
	recs, _ := co.Records(id)
	if len(recs) != 1 || recs[0].Key != rootKey {
		t.Fatalf("record set: %+v", recs)
	}
}

// TestLeasesFillBatches: the frontier is one FIFO queue. While at least
// Batch inputs are pending, every lease carries exactly Batch of them,
// in the order they were enqueued, whichever worker asks; children of a
// result join the back of the queue.
func TestLeasesFillBatches(t *testing.T) {
	co, _ := newTestCoordinator(t)
	const batch = 4
	st, err := co.Create(Spec{Prog: "counter-s", Batch: batch, LeaseTTLMS: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	var want []cte.WireInput
	for v := uint64(1); v <= 11; v++ {
		want = append(want, wireInput(v))
	}
	root, _ := co.Lease(id, LeaseRequest{Worker: "a"})
	if _, err := co.Result(id, Result{Lease: root.ID, Worker: "a",
		Records:  []PathRecord{{Key: root.Inputs[0].Key()}},
		Frontier: want[:7],
	}); err != nil {
		t.Fatal(err)
	}

	var got []cte.WireInput
	for i, w := range []string{"a", "b", "c"} {
		before, _ := co.Status(id)
		l, err := co.Lease(id, LeaseRequest{Worker: w})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(l.Inputs); n != min(batch, before.Pending) {
			t.Fatalf("lease %d to %s: %d inputs with %d pending, batch %d", i, w, n, before.Pending, batch)
		}
		got = append(got, l.Inputs...)
		if i == 0 {
			var recs []PathRecord
			for _, in := range l.Inputs {
				recs = append(recs, PathRecord{Key: in.Key()})
			}
			if _, err := co.Result(id, Result{Lease: l.ID, Worker: w, Records: recs, Frontier: want[7:]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("leased %d inputs, enqueued %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("leased input %d is %s, want %s (FIFO order)", i, got[i].Key(), want[i].Key())
		}
	}
}

// TestCancelPropagates: DELETE semantics — running leases are told to
// stop, new lease requests are turned away, results are ignored.
func TestCancelPropagates(t *testing.T) {
	co, _ := newTestCoordinator(t)
	st, err := co.Create(Spec{Prog: "counter-s", Batch: 1, LeaseTTLMS: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	l, _ := co.Lease(id, LeaseRequest{Worker: "a"})
	if l.ID == "" {
		t.Fatal("no lease")
	}
	if got, _ := co.Cancel(id); got.State != StateCanceled {
		t.Fatalf("cancel state: %+v", got)
	}
	if hb, _ := co.Heartbeat(id, l.ID); !hb.Cancel {
		t.Fatal("heartbeat must cancel after campaign cancel")
	}
	if l2, _ := co.Lease(id, LeaseRequest{Worker: "b"}); !l2.Done {
		t.Fatalf("lease after cancel: %+v", l2)
	}
	if rr, _ := co.Result(id, Result{Lease: l.ID, Records: []PathRecord{{Key: "k"}}}); rr.Accepted {
		t.Fatal("result accepted after cancel")
	}
}

// TestStopOnErrorRequeuesRemainder: a lease that ends early (first
// finding) returns its unexecuted inputs to the frontier and the campaign
// finishes with the finding.
func TestStopOnErrorRequeues(t *testing.T) {
	co, _ := newTestCoordinator(t)
	st, err := co.Create(Spec{Prog: "counter-s", Batch: 4, LeaseTTLMS: 60_000, StopOnError: true})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	l, _ := co.Lease(id, LeaseRequest{Worker: "a"})
	// Seed three siblings, lease them, then return only one executed.
	co.Result(id, Result{Lease: l.ID,
		Records:  []PathRecord{{Key: l.Inputs[0].Key()}},
		Frontier: []cte.WireInput{wireInput(1), wireInput(2), wireInput(3)},
	})
	l2, _ := co.Lease(id, LeaseRequest{Worker: "a"})
	if len(l2.Inputs) != 3 {
		t.Fatalf("expected 3 leased inputs, got %d", len(l2.Inputs))
	}
	rr, err := co.Result(id, Result{Lease: l2.ID,
		Records:  []PathRecord{{Key: l2.Inputs[0].Key(), Err: "boom"}},
		Findings: []WireFinding{{Kind: "load-oob", PC: 0x80000010, Msg: "boom"}},
	})
	if err != nil || !rr.Accepted {
		t.Fatalf("result: %+v err=%v", rr, err)
	}
	got, _ := co.Status(id)
	if got.State != StateDone {
		t.Fatalf("stop-on-error campaign still %q", got.State)
	}
	if got.Stats.Requeued != 2 || got.Pending != 2 {
		t.Fatalf("unexecuted inputs not requeued: %+v pending=%d", got.Stats, got.Pending)
	}
	if got.Findings != 1 {
		t.Fatalf("findings = %d", got.Findings)
	}
}

// TestScopedCampaignMetrics: each campaign's counters land in its own
// namespace of the coordinator's registry.
func TestScopedCampaignMetrics(t *testing.T) {
	co, _ := newTestCoordinator(t)
	ob := obs.New()
	co.obs = ob
	st, _ := co.Create(Spec{Prog: "counter-s", Batch: 1, LeaseTTLMS: 60_000})
	id := st.Spec.ID
	l, _ := co.Lease(id, LeaseRequest{Worker: "a"})
	co.Result(id, Result{Lease: l.ID, Records: []PathRecord{{Key: l.Inputs[0].Key()}}})
	snap := ob.Snapshot()
	if snap.Counters["campaign."+id+".paths"] != 1 {
		t.Fatalf("scoped paths counter missing: %v", snap.Counters)
	}
}

// TestHostileWireInputFailsLease: a leased input whose variables a
// worker cannot accept (any width but 8, including a width that
// contradicts an existing variable or one the guest mints later) fails
// the lease instead of panicking the worker. The coordinator drops the
// refused inputs and requeues the others, and the same runner goes on
// to run them.
func TestHostileWireInputFailsLease(t *testing.T) {
	co, _ := newTestCoordinator(t)
	st, err := co.Create(Spec{Prog: "counter-s", Batch: 8, LeaseTTLMS: 60_000, StopOnError: false})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	r, err := NewRunner(st.Spec)
	if err != nil {
		t.Fatal(err)
	}
	hostile := []cte.WireInput{
		{Vars: []cte.WireVar{{Name: "zero", Width: 0, Val: 1}}, Bound: 1},
		{Vars: []cte.WireVar{{Name: "wide", Width: 65, Val: 1}}, Bound: 1},
		{Vars: []cte.WireVar{{Name: "x", Width: 32, Val: 5}}, Bound: 1}, // "x" is 8 bits below
		{Vars: []cte.WireVar{{Name: "in[0]", Width: 32}}, Bound: 1},     // the guest mints in[0] at 8 bits
	}
	l, _ := co.Lease(id, LeaseRequest{Worker: "a"})
	co.Result(id, Result{Lease: l.ID,
		Records:  []PathRecord{{Key: l.Inputs[0].Key()}},
		Frontier: append([]cte.WireInput{wireInput(1), wireInput(2)}, hostile...),
	})

	l2, _ := co.Lease(id, LeaseRequest{Worker: "a"})
	if len(l2.Inputs) != 2+len(hostile) {
		t.Fatalf("expected %d leased inputs, got %d", 2+len(hostile), len(l2.Inputs))
	}
	res := r.Run(context.Background(), l2)
	if res.Err == "" || len(res.Records) != 0 || len(res.Rejected) != len(hostile) {
		t.Fatalf("hostile lease: err=%q records=%d rejected=%v", res.Err, len(res.Records), res.Rejected)
	}
	for i, k := range res.Rejected {
		if k != hostile[i].Key() {
			t.Errorf("rejected[%d] = %q, want %q", i, k, hostile[i].Key())
		}
	}
	if rr, err := co.Result(id, res); err != nil || !rr.Accepted {
		t.Fatalf("failed-lease result: %+v err=%v", rr, err)
	}
	got, _ := co.Status(id)
	if got.Stats.Rejected != len(hostile) || got.Stats.Requeued != 2 || got.Pending != 2 {
		t.Fatalf("after the failed lease: %+v pending=%d", got.Stats, got.Pending)
	}

	// The worker is alive and runs the requeued valid inputs.
	l3, _ := co.Lease(id, LeaseRequest{Worker: "a"})
	if len(l3.Inputs) != 2 {
		t.Fatalf("re-lease: %d inputs, want the 2 valid ones", len(l3.Inputs))
	}
	res = r.Run(context.Background(), l3)
	if res.Err != "" || len(res.Records) != 2 {
		t.Fatalf("valid lease after a failed one: err=%q records=%d", res.Err, len(res.Records))
	}
}

// TestRestartResumesScopedMetrics: a coordinator restarted over its
// spool with a fresh registry resumes each campaign's counters, so the
// scoped snapshot agrees with Status again.
func TestRestartResumesScopedMetrics(t *testing.T) {
	spool := t.TempDir()
	co1, err := NewCoordinator(spool, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	fc := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	co1.now = fc.now
	st, err := co1.Create(Spec{Prog: "counter-s", Batch: 1, LeaseTTLMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	stale, _ := co1.Lease(id, LeaseRequest{Worker: "a"})
	fc.advance(2 * time.Second) // a's lease expires and is re-leased to b
	l, _ := co1.Lease(id, LeaseRequest{Worker: "b"})
	if l.ID == "" || len(l.Inputs) != 1 {
		t.Fatalf("expired lease not re-leased: %+v", l)
	}
	rec := []PathRecord{{Key: l.Inputs[0].Key()}}
	finding := WireFinding{Kind: "assert", PC: 0x40, Msg: "boom"}
	if _, err := co1.Result(id, Result{Lease: l.ID, Records: rec, Findings: []WireFinding{finding}}); err != nil {
		t.Fatal(err)
	}
	if _, err := co1.Result(id, Result{Lease: stale.ID, Records: rec}); err != nil {
		t.Fatal(err)
	}
	want, _ := co1.Status(id)
	if want.Stats.Paths != 1 || want.Stats.Duplicates != 1 || want.Stats.Expired != 1 || want.Findings != 1 {
		t.Fatalf("campaign before the restart: %+v", want)
	}

	ob := obs.New()
	co2, err := NewCoordinator(spool, ob)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := co2.Status(id)
	c := ob.Scoped("campaign." + id).Snapshot().Counters
	for name, w := range map[string]int{
		"paths":      got.Stats.Paths,
		"duplicates": got.Stats.Duplicates,
		"expired":    got.Stats.Expired,
		"findings":   got.Findings,
	} {
		if c[name] != int64(w) || w == 0 {
			t.Errorf("%s = %d after the restart, status says %d (want equal and nonzero)", name, c[name], w)
		}
	}
}
