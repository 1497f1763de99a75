package campaign

import (
	"context"
	"testing"
)

// TestQCacheDeltaMatchesFullFilter: the export cursor ships, lease by
// lease, exactly the key set of the full-cache filter it replaced —
// every local cache entry whose key was neither sent nor received
// before. Two runners alternate leases over storm-s, so each lease's
// delta mixes its own solves with entries the peer published.
func TestQCacheDeltaMatchesFullFilter(t *testing.T) {
	co, _ := newTestCoordinator(t)
	st, err := co.Create(Spec{Prog: "storm-s", Batch: 8, LeaseTTLMS: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	type worker struct {
		name  string
		r     *Runner
		known map[uint64]bool // the full filter's sent-or-received keys
	}
	var ws []*worker
	for _, name := range []string{"a", "b"} {
		r, err := NewRunner(st.Spec)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, &worker{name: name, r: r, known: map[uint64]bool{}})
	}
	leases, shipped, received := 0, 0, 0
	for turn := 0; turn < 200; turn++ {
		w := ws[turn%2]
		l, err := co.Lease(id, w.r.Request(w.name))
		if err != nil {
			t.Fatal(err)
		}
		w.r.Sync(l)
		for _, e := range l.QEntries {
			w.known[e.Key] = true
		}
		received += len(l.QEntries)
		if l.Done {
			break
		}
		if l.ID == "" {
			continue
		}
		res := w.r.Run(context.Background(), l)
		want := map[uint64]bool{}
		for _, e := range w.r.qc.ExportEntries() {
			if !w.known[e.Key] {
				w.known[e.Key] = true
				want[e.Key] = true
			}
		}
		got := map[uint64]bool{}
		for _, e := range res.QEntries {
			if got[e.Key] {
				t.Fatalf("lease %d: key %#x shipped twice", leases, e.Key)
			}
			got[e.Key] = true
		}
		if len(got) != len(want) {
			t.Fatalf("lease %d (%s): shipped %d keys, full filter %d", leases, w.name, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("lease %d (%s): key %#x missing from the delta", leases, w.name, k)
			}
		}
		shipped += len(got)
		leases++
		if _, err := co.Result(id, res); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := co.Status(id); got.State != StateDone {
		t.Fatalf("campaign not done after %d leases: %s", leases, got.State)
	}
	if leases < 4 || shipped == 0 || received == 0 {
		t.Fatalf("too little exchange to compare: %d leases, %d keys shipped, %d received", leases, shipped, received)
	}
	t.Logf("%d leases, %d keys shipped, %d received", leases, shipped, received)
}

// TestLeaseSkipsOwnQEntries: a lease past a runner's first request
// carries no query-cache entry its requester uploaded (the
// coordinator's first writer of the key), even while the runner's
// cursor is still 0, yet a fresh runner under the same worker id
// receives every entry of the campaign.
func TestLeaseSkipsOwnQEntries(t *testing.T) {
	co, _ := newTestCoordinator(t)
	st, err := co.Create(Spec{Prog: "storm-s", Batch: 8, LeaseTTLMS: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	newRunner := func() *Runner {
		r, err := NewRunner(st.Spec)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	names := []string{"a", "b"}
	runners := []*Runner{newRunner(), newRunner()}
	uploader := map[uint64]string{} // first uploader of each key, as the coordinator keeps it
	peer := 0                       // entries received that the peer uploaded
	for turn := 0; turn < 200; turn++ {
		name, r := names[turn%2], runners[turn%2]
		l, err := co.Lease(id, r.Request(name))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range l.QEntries {
			if uploader[e.Key] == name {
				if turn >= len(names) { // not the runner's first request
					t.Fatalf("turn %d: lease to %s echoes its own key %#x", turn, name, e.Key)
				}
				continue
			}
			peer++
		}
		r.Sync(l)
		if l.Done {
			break
		}
		if l.ID == "" {
			continue
		}
		res := r.Run(context.Background(), l)
		res.Worker = name
		for _, e := range res.QEntries {
			if _, ok := uploader[e.Key]; !ok {
				uploader[e.Key] = name
			}
		}
		if _, err := co.Result(id, res); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := co.Status(id); got.State != StateDone {
		t.Fatalf("campaign not done: %s", got.State)
	}
	own := map[string]int{}
	for _, n := range uploader {
		own[n]++
	}
	if own["a"] == 0 || own["b"] == 0 || peer == 0 {
		t.Fatalf("too little exchange: uploads %v, %d peer entries received", own, peer)
	}

	l, err := co.Lease(id, newRunner().Request("a"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for _, e := range l.QEntries {
		got[e.Key] = true
	}
	if len(got) != len(uploader) {
		t.Fatalf("fresh runner received %d keys, campaign holds %d", len(got), len(uploader))
	}
	for k := range uploader {
		if !got[k] {
			t.Fatalf("fresh runner is missing key %#x", k)
		}
	}
	t.Logf("uploads %v; %d entries received from the peer, %d by the fresh runner", own, peer, len(got))
}
