package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets pins the boundary semantics: a value equal to a
// bound lands in that bound's bucket; above every bound lands in the
// overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100})
	for _, v := range []int64{0, 5, 10, 11, 100, 101, 1_000_000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	if want := []int64{10, 100}; fmt.Sprint(s.Bounds) != fmt.Sprint(want) {
		t.Fatalf("bounds = %v, want %v", s.Bounds, want)
	}
	// <=10: {0,5,10}; <=100: {11,100}; overflow: {101, 1e6}
	if want := []int64{3, 2, 2}; fmt.Sprint(s.Buckets) != fmt.Sprint(want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 0+5+10+11+100+101+1_000_000 {
		t.Fatalf("sum = %d", s.Sum)
	}
	// Unsorted bounds are sorted at creation.
	h2 := r.Histogram("h2", []int64{100, 1, 10})
	h2.Observe(2)
	if b := r.Snapshot().Histograms["h2"].Bounds; b[0] != 1 || b[2] != 100 {
		t.Fatalf("bounds not sorted: %v", b)
	}
}

// TestConcurrentCounters exercises the registry and its handles from
// many goroutines; run under -race this is the data-race check, and the
// final totals check that no increment is lost.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Resolve handles inside the goroutine: wiring is also
			// concurrent in parallel engines.
			c := r.Counter("shared")
			g := r.Gauge("gauge")
			h := r.Histogram("lat", LatencyBoundsUS)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(i % 500))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat", nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestNilSafety: every handle and bundle method must be a no-op on nil,
// the contract the engines' unconditional call sites rely on.
func TestNilSafety(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		r *Registry
		o *Obs
		s *Tracer
	)
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	s.Emit(Event{Ev: "x"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry must resolve nil handles")
	}
	if o.Snapshot() != nil || o.Registry() != nil || o.Trace() != nil {
		t.Fatal("nil obs accessors must return nil")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read zero")
	}
}

// TestTracerRoundTrip writes a mixed event stream and decodes it back,
// field by field.
func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	in := []Event{
		{Ev: EvPathStart, Path: 3},
		{Ev: EvPathEnd, Path: 3, DurUS: 1234, N: 5678, Result: "ok"},
		{Ev: EvSatQuery, DurUS: 42, N: 7, Result: "sat"},
		{Ev: EvCacheHit, Class: "eval"},
		{Ev: EvFinding, Path: 9, PC: 0x80000010, Err: "assertion failed"},
		{Ev: EvRunEnd, DurUS: 10, Class: "exhausted"},
	}
	for _, ev := range in {
		tr.Emit(ev)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Events(); got != int64(len(in)) {
		t.Fatalf("Events() = %d, want %d", got, len(in))
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	lastT := -1.0
	for i, ev := range out {
		if ev.T < lastT {
			t.Fatalf("event %d: timestamps not monotone: %f after %f", i, ev.T, lastT)
		}
		lastT = ev.T
		want := in[i]
		want.T = ev.T // stamped by the tracer
		if ev != want {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want)
		}
	}
	// A malformed line must fail the decode.
	if _, err := ReadTrace(strings.NewReader("{\"ev\":\"x\"}\nnot json\n")); err == nil {
		t.Fatal("ReadTrace accepted a malformed line")
	}
	// An unknown field must fail the decode (schema drift guard).
	if _, err := ReadTrace(strings.NewReader("{\"ev\":\"x\",\"bogus\":1}\n")); err == nil {
		t.Fatal("ReadTrace accepted an unknown field")
	}
}

// TestReadTraceOneObjectPerLine: the decoder is line-based, so an event
// index is a line number, and every line must hold exactly one object.
func TestReadTraceOneObjectPerLine(t *testing.T) {
	for name, in := range map[string]string{
		"two events on a line": "{\"ev\":\"a\"}{\"ev\":\"b\"}\n",
		"event over two lines": "{\"ev\":\n\"a\"}\n",
		"null":                 "{\"ev\":\"a\"}\nnull\n",
		"blank line":           "{\"ev\":\"a\"}\n\n{\"ev\":\"b\"}\n",
		"trailing data":        "{\"ev\":\"a\"} 1\n",
		"array":                "[]\n",
	} {
		if evs, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted as %d events", name, len(evs))
		}
	}
	evs, err := ReadTrace(strings.NewReader("{\"ev\":\"a\"}\n{\"ev\":\"b\"}"))
	if err != nil || len(evs) != 2 {
		t.Errorf("two lines, the last unterminated: %d events, err %v", len(evs), err)
	}
	_, err = ReadTrace(strings.NewReader("{\"ev\":\"a\"}\n{\"ev\":\"b\"}\n{\"ev\":3}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %v does not name line 3", err)
	}
}

// TestProgressShutdown checks the reporter goroutine actually exits on
// Stop (no leak) and that it emits lines while running.
func TestProgressShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	o := New()
	o.Metrics.Counter("smt.queries").Add(123)
	o.Metrics.Counter("iss.instr").Add(1_500_000)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	p := StartProgress(o, ProgressOptions{Interval: 5 * time.Millisecond, W: w, Budget: time.Minute})
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := buf.Len()
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "satq=123") || !strings.Contains(out, "instr=1.5M") || !strings.Contains(out, "eta=") {
		t.Fatalf("unexpected progress output: %q", out)
	}
	// After Stop returns the goroutine must be gone. Allow scheduler
	// noise from unrelated runtime goroutines with a bounded retry.
	for i := 0; ; i++ {
		runtime.Gosched()
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 1000 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	// Stopping a nil-Obs reporter must not hang either.
	p2 := StartProgress(nil, ProgressOptions{Interval: time.Millisecond})
	p2.Stop()
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestProgressLine pins the formatting of one line without timing.
func TestProgressLine(t *testing.T) {
	cur := &Snapshot{
		Counters: map[string]int64{
			"cte.paths": 200, "smt.queries": 1000,
			"qcache.queries": 1000, "qcache.hits": 400, "qcache.eval_hits": 100,
			"iss.instr": 2_000_000, "cte.findings": 2,
		},
		Gauges: map[string]int64{"cte.cover_pcs": 321},
	}
	prev := &Snapshot{Counters: map[string]int64{"cte.paths": 100, "smt.queries": 500}}
	line := progressLine(cur, prev, 2*time.Second, 10*time.Second, 30*time.Second)
	for _, want := range []string{
		"obs 10s:", "paths=200 (50/s)", "satq=1000 (250/s)",
		"cachehit=50%", "instr=2.0M", "cover=321", "findings=2", "eta=20s",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

// TestServe exercises the HTTP endpoint end to end on an ephemeral port.
func TestServe(t *testing.T) {
	o := New()
	o.Metrics.Counter("cte.paths").Add(7)
	addr, shutdown, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["cte.paths"] != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}
	resp2, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp2.StatusCode)
	}
}
