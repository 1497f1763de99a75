package obs

import (
	"reflect"
	"sync"
	"testing"
)

// TestChildForwardsAllKinds: counter, gauge and histogram updates made
// through a child land in both the child and the parent; updates made
// on the parent directly stay out of the child.
func TestChildForwardsAllKinds(t *testing.T) {
	parent := NewRegistry()
	parent.Counter("c").Add(10) // pre-existing parent state
	child := parent.Child()

	child.Counter("c").Add(3)
	child.Counter("c").Inc()
	child.Gauge("g").Set(7)
	child.Gauge("g").Add(-2)
	child.Histogram("h", []int64{10, 100}).Observe(50)
	parent.Counter("c").Add(100) // not the child's

	cs, ps := child.Snapshot(), parent.Snapshot()
	if cs.Counters["c"] != 4 || ps.Counters["c"] != 114 {
		t.Errorf("counter child=%d parent=%d want 4, 114", cs.Counters["c"], ps.Counters["c"])
	}
	if cs.Gauges["g"] != 5 || ps.Gauges["g"] != 5 {
		t.Errorf("gauge child=%d parent=%d want 5, 5", cs.Gauges["g"], ps.Gauges["g"])
	}
	for name, s := range map[string]*Snapshot{"child": cs, "parent": ps} {
		h := s.Histograms["h"]
		if h.Count != 1 || h.Sum != 50 || !reflect.DeepEqual(h.Buckets, []int64{0, 1, 0}) {
			t.Errorf("%s histogram = %+v", name, h)
		}
	}
}

// TestChildOfChild: a grandchild forwards to every ancestor, and two
// siblings share the parent without seeing each other.
func TestChildOfChild(t *testing.T) {
	root := NewRegistry()
	a, b := root.Child(), root.Child()
	aa := a.Child()
	aa.Counter("n").Add(2)
	b.Counter("n").Add(5)
	for r, want := range map[*Registry]int64{root: 7, a: 2, aa: 2, b: 5} {
		if got := r.Counter("n").Value(); got != want {
			t.Errorf("n = %d want %d", got, want)
		}
	}
}

// TestChildNilParent: the child of a nil registry is a working root.
func TestChildNilParent(t *testing.T) {
	var r *Registry
	c := r.Child()
	if c == nil {
		t.Fatal("Child of nil registry is nil")
	}
	c.Counter("x").Add(3)
	c.Gauge("y").Set(4)
	c.Histogram("z", LatencyBoundsUS).Observe(1)
	s := c.Snapshot()
	if s.Counters["x"] != 3 || s.Gauges["y"] != 4 || s.Histograms["z"].Count != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

// TestChildScopedParent: a child of a Scoped view forwards to the
// fully qualified names of the root, and the child itself reports
// local names.
func TestChildScopedParent(t *testing.T) {
	root := NewRegistry()
	child := root.Scoped("campaign.a").Child()
	child.Counter("paths").Add(3)
	child.Gauge("workers").Set(2)
	child.Histogram("lease_us", LatencyBoundsUS).Observe(9)
	rs := root.Snapshot()
	if rs.Counters["campaign.a.paths"] != 3 || rs.Gauges["campaign.a.workers"] != 2 ||
		rs.Histograms["campaign.a.lease_us"].Count != 1 {
		t.Errorf("root snapshot = %+v", rs)
	}
	if got := child.Snapshot().Counters; !reflect.DeepEqual(got, map[string]int64{"paths": 3}) {
		t.Errorf("child counters = %v", got)
	}
	// A scoped view of the child forwards under the composed name.
	child.Scoped("w1").Counter("leases").Inc()
	if got := root.Counter("campaign.a.w1.leases").Value(); got != 1 {
		t.Errorf("scoped child forward = %d want 1", got)
	}
}

// TestChildHistogramBounds: a child histogram keeps the bounds it was
// created with, while the parent buckets the forwarded values by the
// bounds its histogram already had.
func TestChildHistogramBounds(t *testing.T) {
	parent := NewRegistry()
	parent.Histogram("h", []int64{10, 100})
	child := parent.Child()
	hc := child.Histogram("h", []int64{5, 1})
	for _, v := range []int64{1, 7, 50, 500} {
		hc.Observe(v)
	}
	cs, ps := child.Snapshot().Histograms["h"], parent.Snapshot().Histograms["h"]
	if !reflect.DeepEqual(cs.Bounds, []int64{1, 5}) || !reflect.DeepEqual(cs.Buckets, []int64{1, 0, 3}) {
		t.Errorf("child histogram = %+v", cs)
	}
	if !reflect.DeepEqual(ps.Bounds, []int64{10, 100}) || !reflect.DeepEqual(ps.Buckets, []int64{2, 1, 1}) {
		t.Errorf("parent histogram = %+v", ps)
	}
	if cs.Count != 4 || ps.Count != 4 || cs.Sum != 558 || ps.Sum != 558 {
		t.Errorf("count/sum child %d/%d parent %d/%d", cs.Count, cs.Sum, ps.Count, ps.Sum)
	}
}

// TestChildConcurrent: sibling children updated from many goroutines
// sum exactly into the shared parent (run under -race by make race).
func TestChildConcurrent(t *testing.T) {
	root := NewRegistry()
	var wg sync.WaitGroup
	kids := make([]*Registry, 4)
	for i := range kids {
		kids[i] = root.Child()
		wg.Add(1)
		go func(r *Registry) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Histogram("h", LatencyBoundsUS).Observe(int64(j))
			}
		}(kids[i])
	}
	wg.Wait()
	for _, k := range kids {
		if got := k.Counter("n").Value(); got != 1000 {
			t.Errorf("child n = %d want 1000", got)
		}
	}
	if got := root.Counter("n").Value(); got != 4000 {
		t.Errorf("root n = %d want 4000", got)
	}
	if got := root.Histogram("h", nil).Count(); got != 4000 {
		t.Errorf("root h count = %d want 4000", got)
	}
}
