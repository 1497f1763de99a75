// Package obs is the observability layer shared by every engine in the
// repo: a lock-cheap metrics registry (atomic counters, gauges and
// bucketed latency histograms), a structured JSONL event tracer, a
// periodic progress reporter, and an opt-in HTTP endpoint serving the
// live metric snapshot plus pprof. Everything is stdlib-only.
//
// Design constraints (DESIGN.md "Observability"):
//
//   - The hot path must stay hot. Counter/Gauge/Histogram methods are
//     nil-safe no-ops, so instrumented code holds plain pointers and
//     pays one nil test plus one atomic op when metrics are on, and one
//     nil test when they are off (BenchmarkObsCounterHot guards this).
//     No map lookup ever happens on the hot path: handles are resolved
//     once, at wiring time.
//   - Tracing off must cost one nil test. Tracer methods no-op on a nil
//     receiver; engines keep the `*Tracer` and call Emit directly.
//   - Metric names are a flat, dot-separated namespace owned by the
//     producing package ("smt.queries", "cte.paths", "fuzz.execs", ...).
//     The full taxonomy is documented in DESIGN.md and is part of the
//     -json output contract.
package obs

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-ops), so disabled metrics cost one branch.
// A counter resolved through a Child registry forwards every update to
// its parent counter.
type Counter struct {
	v      atomic.Int64
	parent *Counter
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	for ; c != nil; c = c.parent {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value metric. Nil-safe and forwarding like
// Counter.
type Gauge struct {
	v      atomic.Int64
	parent *Gauge
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	for ; g != nil; g = g.parent {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	for ; g != nil; g = g.parent {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// LatencyBoundsUS is the default histogram bucketing for query/path
// latencies, in microseconds: roughly logarithmic from 1µs to 1s.
var LatencyBoundsUS = []int64{
	1, 2, 5, 10, 25, 50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000,
}

// Histogram is a bucketed distribution: Observe(v) increments the first
// bucket whose upper bound is >= v; values above every bound land in the
// implicit overflow bucket. Bounds are fixed at creation; observations
// are lock-free atomic increments. Nil-safe and forwarding like
// Counter; a parent buckets forwarded values by its own bounds.
type Histogram struct {
	bounds  []int64        // ascending upper bounds; len(buckets) == len(bounds)+1
	buckets []atomic.Int64 // counts per bucket, last is overflow
	count   atomic.Int64
	sum     atomic.Int64
	parent  *Histogram
}

func newHistogram(bounds []int64, parent *Histogram) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1), parent: parent}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	for ; h != nil; h = h.parent {
		i, _ := slices.BinarySearch(h.bounds, v) // the first bound >= v
		h.buckets[i].Add(1)
		h.count.Add(1)
		h.sum.Add(v)
	}
}

// ObserveDuration records d in microseconds (the unit of
// LatencyBoundsUS).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Microseconds())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry holds the named metrics of one run. Handle resolution
// (Counter/Gauge/Histogram) takes a mutex and is meant for wiring time;
// the returned handles are lock-free. A nil *Registry resolves every
// name to a nil handle, so disabled observability needs no special
// casing at call sites.
//
// A Registry is a view — a name prefix over shared storage. Scoped
// derives a sub-view, which the campaign server uses to give every
// campaign its own metric namespace ("campaign.<id>.") inside one
// process-wide registry: the scoped snapshot shows a campaign its own
// metrics under local names, while the root /metrics endpoint sees the
// fully qualified union.
//
// Child derives a registry with storage of its own whose handles
// forward to the parent's: a cte.Session reads its own run's counters
// from a child while the caller's registry still sees every update.
type Registry struct {
	prefix string
	s      *regState
}

type regState struct {
	mu       sync.Mutex
	parent   *Registry // handles forward to their namesakes here (Child)
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{s: &regState{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}}
}

// Child returns an empty registry whose every handle also forwards its
// updates to the handle of the same qualified name in r, so r sees the
// child's metrics merged into its own while the child's Snapshot shows
// only the updates made through it. Children compose (a grandchild
// forwards to both ancestors), r may be a Scoped view, and a nil r
// yields a fresh root registry.
func (r *Registry) Child() *Registry {
	c := NewRegistry()
	c.s.parent = r
	return c
}

// Scoped returns a view of the same registry under prefix (a trailing
// dot is added if missing, matching the dot-separated namespace).
// Handles resolved through the view live in the shared storage with
// fully qualified names; the view's Snapshot sees only its own subtree,
// with the prefix stripped. Scoping composes: r.Scoped("a").Scoped("b")
// is the "a.b." subtree.
func (r *Registry) Scoped(prefix string) *Registry {
	if r == nil {
		return nil
	}
	if prefix != "" && !strings.HasSuffix(prefix, ".") {
		prefix += "."
	}
	return &Registry{prefix: r.prefix + prefix, s: r.s}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	c := r.s.counters[name]
	if c == nil {
		c = &Counter{parent: r.s.parent.Counter(name)}
		r.s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	g := r.s.gauges[name]
	if g == nil {
		g = &Gauge{parent: r.s.parent.Gauge(name)}
		r.s.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls reuse the existing bounds).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	h := r.s.hists[name]
	if h == nil {
		h = newHistogram(bounds, r.s.parent.Histogram(name, bounds))
		r.s.hists[name] = h
	}
	return h
}

// HistSnapshot is the serializable state of one histogram.
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"` // len(Bounds)+1, last is overflow
}

// Snapshot is a point-in-time copy of every metric in a registry, the
// unit the -json report, the /metrics endpoint and the progress
// reporter consume.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every registered metric in this
// view's subtree, under view-local names (the scope prefix stripped).
// Values are loaded individually (no global lock), so a snapshot taken
// during a run is consistent per-metric, not across metrics — fine for
// progress display and end-of-run totals (the engines have quiesced by
// then).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	s := &Snapshot{Counters: map[string]int64{}}
	for name, c := range r.s.counters {
		if local, ok := strings.CutPrefix(name, r.prefix); ok {
			s.Counters[local] = c.Value()
		}
	}
	for name, g := range r.s.gauges {
		local, ok := strings.CutPrefix(name, r.prefix)
		if !ok {
			continue
		}
		if s.Gauges == nil {
			s.Gauges = map[string]int64{}
		}
		s.Gauges[local] = g.Value()
	}
	for name, h := range r.s.hists {
		local, ok := strings.CutPrefix(name, r.prefix)
		if !ok {
			continue
		}
		hs := HistSnapshot{
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
			Bounds: append([]int64(nil), h.bounds...),
		}
		hs.Buckets = make([]int64, len(h.buckets))
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		if s.Histograms == nil {
			s.Histograms = map[string]HistSnapshot{}
		}
		s.Histograms[local] = hs
	}
	return s
}

// Obs bundles the observability state threaded through a run: a metrics
// registry (always present on a non-nil Obs) and an optional tracer.
// Engines accept a *Obs and tolerate nil — a nil Obs resolves every
// metric handle to nil and traces nothing.
type Obs struct {
	Metrics *Registry
	Tracer  *Tracer
}

// New creates an Obs with a fresh registry and no tracer.
func New() *Obs {
	return &Obs{Metrics: NewRegistry()}
}

// Registry returns the metrics registry (nil on a nil Obs).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Scoped returns an Obs whose registry is the prefix-scoped view of
// this one's (shared storage, see Registry.Scoped) and which shares the
// tracer. The campaign server hands each campaign o.Scoped("campaign."+id).
func (o *Obs) Scoped(prefix string) *Obs {
	if o == nil {
		return nil
	}
	return &Obs{Metrics: o.Metrics.Scoped(prefix), Tracer: o.Tracer}
}

// Trace returns the tracer (nil on a nil Obs or when tracing is off).
func (o *Obs) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// Snapshot returns the current metric snapshot (nil on a nil Obs).
func (o *Obs) Snapshot() *Snapshot {
	if o == nil {
		return nil
	}
	return o.Metrics.Snapshot()
}
