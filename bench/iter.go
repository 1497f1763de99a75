package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"rvcte/internal/cte"
	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/obs"
	"rvcte/internal/relf"
	"rvcte/internal/smt"
)

// iterResult is what one workload iteration reports to the parent benchmark process.
type iterResult struct {
	SetupS   float64            `json:"setup_s"`
	WallS    float64            `json:"wall_s"`
	Execs    uint64             `json:"execs"`
	Instr    uint64             `json:"instr"`
	Checks   int                `json:"checks"`
	Failures []string           `json:"failures,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	CalS     float64            `json:"cal_s"` // median host-speed probe pass during the workload (cal.go)
}

// iter is one execution of a workload: set-up and timed phases, the
// observability wiring every session shares, the probes of a traced run
// and the correctness checks. Workloads charge set-up work (guest builds
// and snapshot boots) to setup and the work a user waits for to wall.
type iter struct {
	seed   int64
	traced bool
	small  bool // scaled-down sizes for the package tests
	// reference runs the concrete-VP reference runs of table1: on the
	// first iteration of a run and on traced ones, so the differential
	// check runs every run without the slower VP dominating iteration
	// time.
	reference bool

	reg   *obs.Registry // the metrics registry, on as in cmd/cte
	spans *spanLog      // nil unless traced
	root  int           // the workload span

	setup, wall   time.Duration
	execs, instr  uint64
	checks        int
	failures      []string
	traces        []sessionTrace
	build, boot   time.Duration
	runTime       time.Duration // Core.Run time of single-path concrete runs
	runInstr      uint64
	bbHits, bbMis uint64 // block-cache counters of single-path concrete runs
	vpTime        time.Duration
	vpInstr       uint64
	stageTime     time.Duration
	bugs          map[int]bool
	edges         int
	hybridSolver  time.Duration
	replayConds   [][]*smt.Expr
	replayB       *smt.Builder
	clones        []float64 // µs
	dedups        []float64 // µs
	http          *httpProbe
	heap          *heapSampler
	gcCPU0        float64
}

// sessionTrace is one session's buffered JSONL trace, folded into spans
// after the timed phase so that decoding it is not timed.
type sessionTrace struct {
	buf  *bytes.Buffer
	tr   *obs.Tracer
	t0   time.Time
	span int
}

func newIter(name string, seed int64, traced, small bool, run int) *iter {
	it := &iter{seed: seed, traced: traced, small: small, reference: run == 0 || traced,
		reg: obs.NewRegistry(), bugs: map[int]bool{}, root: -1}
	if traced {
		it.spans = newSpanLog(run)
		it.root = it.spans.begin("workload:"+name, -1)
		it.heap = startHeapSampler()
		it.gcCPU0 = readMetric("/cpu/classes/gc/total:cpu-seconds")
	}
	return it
}

// check records one correctness check.
func (it *iter) check(ok bool, format string, args ...any) {
	it.checks++
	if !ok {
		it.failures = append(it.failures, fmt.Sprintf(format, args...))
	}
}

// timed runs f and charges its duration to *acc.
func timed(acc *time.Duration, f func()) {
	start := time.Now()
	f()
	*acc += time.Since(start)
}

// newCore builds and boots one guest snapshot, charged to set-up: the
// build (compile, assemble, ELF round trip, load) and the boot (freezing
// the snapshot into its shareable copy-on-write form plus the first
// clone, the step every engine starts from).
func (it *iter) newCore(p guest.Program) (*iss.Core, *relf.File, error) {
	var core *iss.Core
	var elf *relf.File
	var err error
	timed(&it.build, func() { core, elf, err = guest.NewCore(smt.NewBuilder(), p) })
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	core.Freeze()
	mid := time.Now()
	_ = core.Clone()
	end := time.Now()
	it.boot += end.Sub(start)
	if it.traced {
		it.clones = append(it.clones, micros(end.Sub(mid)))
	}
	return core, elf, nil
}

// session runs one engine session under a span. In a traced run the
// session carries a JSONL tracer into an in-memory buffer and every
// executed core passes through the clone and dedup probes; onPath, when
// set, observes the cores as Session.OnPath does.
func (it *iter) session(label string, parent int, snap *iss.Core, cfg cte.Config, onPath func(int, *iss.Core)) *cte.Report {
	cfg.Obs = &obs.Obs{Metrics: it.reg}
	var st sessionTrace
	if it.traced {
		st.buf = &bytes.Buffer{}
		st.t0 = time.Now()
		st.tr = obs.NewTracer(st.buf)
		cfg.Obs.Tracer = st.tr
	}
	sess := cte.NewSession(snap, cfg)
	st.span = it.spans.begin("cte.session:"+label, parent)
	sess.OnPath = onPath
	if it.traced && cfg.Mode == cte.ModeConcolic {
		b := snap.B
		sess.OnPath = func(path int, c *iss.Core) {
			it.probePath(b, c, st.span)
			if onPath != nil {
				onPath(path, c)
			}
		}
	}
	var rep *cte.Report
	timed(&it.wall, func() { rep = sess.Run(context.Background()) })
	it.spans.end(st.span)
	if it.traced {
		it.traces = append(it.traces, st)
	}
	return rep
}

// probePath times Core.Clone on an executed core and the rendering of
// its input that the engine's child dedup key is built from
// (cte.DescribeInput), recording both as child spans of the session.
// OnPath calls are serialized, so the probe needs no lock of its own.
func (it *iter) probePath(b *smt.Builder, c *iss.Core, parent int) {
	start := time.Now()
	_ = c.Clone()
	mid := time.Now()
	_ = cte.DescribeInput(b, c.Input)
	end := time.Now()
	it.clones = append(it.clones, micros(mid.Sub(start)))
	it.dedups = append(it.dedups, micros(end.Sub(mid)))
	it.spans.add("iss.clone", start, mid, parent)
	it.spans.add("cte.dedup", mid, end, parent)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// captureReplay keeps the trace-condition sets of an executed core (the
// solver queries its path issued) for the solver replay, up to limit.
func (it *iter) captureReplay(c *iss.Core, limit int) {
	it.replayB = c.B
	for _, tc := range c.Trace {
		if len(it.replayConds) >= limit {
			return
		}
		conds := append([]*smt.Expr(nil), c.EPC[:tc.EPCLen]...)
		it.replayConds = append(it.replayConds, append(conds, tc.Cond))
	}
}

// finish folds the traces into spans, runs the untimed solver replay,
// and returns the iteration's result with its per-layer metrics when
// traced.
func (it *iter) finish() (*iterResult, error) {
	res := &iterResult{
		SetupS: it.setup.Seconds(), WallS: it.wall.Seconds(),
		Execs: it.execs, Instr: it.instr,
		Checks: it.checks, Failures: it.failures,
	}
	if !it.traced {
		return res, nil
	}
	it.spans.end(it.root)
	heapPeak := it.heap.stop()
	gcCPU := readMetric("/cpu/classes/gc/total:cpu-seconds") - it.gcCPU0
	for _, st := range it.traces {
		if err := st.tr.Close(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		evs, err := obs.ReadTrace(st.buf)
		if err != nil {
			return nil, fmt.Errorf("read trace: %w", err)
		}
		it.spans.addTrace(evs, st.t0, st.span)
	}
	// One fresh solver per query: each replay pays blasting and search
	// the same way, independent of the order exploration issued them in.
	var replay time.Duration
	for _, conds := range it.replayConds {
		timed(&replay, func() { smt.NewSolver(it.replayB).Check(conds...) })
	}
	res.Layers = it.layers(heapPeak, gcCPU, replay)
	return res, nil
}

// layers computes every per-layer metric from the obs registry, the
// spans and the probes. Metrics of layers the workload never reached
// are 0.
func (it *iter) layers(heapPeakMB, gcCPU float64, replay time.Duration) map[string]float64 {
	snap := it.reg.Snapshot()
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	m := map[string]float64{}

	m["guest.build_s"] = it.build.Seconds()
	m["guest.boot_s"] = it.boot.Seconds()
	m["guest.bugs_found"] = float64(len(it.bugs))

	execS := it.spans.total("iss.path") + it.runTime.Seconds() + it.spans.total("fuzz.batch")
	instr := c("iss.instr") + float64(it.runInstr)
	m["iss.instr"] = instr
	m["iss.exec_s"] = execS
	m["iss.instr_per_s"] = ratio(instr, execS)
	hits := c("iss.bb.hits") + float64(it.bbHits)
	m["iss.bb_hit_ratio"] = ratio(hits, hits+c("iss.bb.misses")+float64(it.bbMis))
	putDist(m, "iss.path", it.spans.durations("iss.path"))
	putDist(m, "iss.clone", it.clones)

	// The engine's self time is the session time outside path
	// execution, solver queries and the probes: fork wiring, query-cache
	// bookkeeping, dedup, frontier, fuzz scheduling between batches. The
	// query cache's share of it is its end-to-end resolve time minus the
	// solver calls made inside it (summed over workers).
	var resolve []obs.HistSnapshot
	var resolveUS int64
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "qcache.resolve_us.") {
			resolve = append(resolve, h)
			resolveUS += h.Sum
		}
	}
	solverS := c("smt.solver_ns") / 1e9
	qcacheSelf := math.Max(0, float64(resolveUS)/1e6-solverS)

	m["cte.paths"] = c("cte.paths")
	m["cte.self_s"] = it.spans.selfTime("cte.session:")
	m["cte.time_to_all_bugs_s"] = it.stageTime.Seconds()
	m["cte.fork_ratio"] = ratio(c("cte.forks"), c("cte.paths"))
	m["cte.fork_restarts"] = c("cte.fork_restarts")
	suffix := snap.Histograms["cte.fork_suffix_instr"]
	m["cte.fork_suffix_instr"] = ratio(float64(suffix.Sum), float64(suffix.Count))
	putDist(m, "cte.dedup", it.dedups)

	m["smt.queries"] = c("smt.queries")
	m["smt.solver_s"] = solverS
	m["smt.solver_share"] = ratio(solverS, it.wall.Seconds())
	putDist(m, "smt.query", it.spans.durations("smt.query"))
	m["smt.replay_s"] = replay.Seconds()
	m["smt.replay_n"] = float64(len(it.replayConds))

	lookups := c("qcache.queries")
	m["qcache.lookups"] = lookups
	m["qcache.hit_ratio"] = ratio(c("qcache.hits")+c("qcache.eval_hits")+c("qcache.subsume_hits"), lookups)
	m["qcache.solver_calls"] = c("qcache.solver_calls")
	m["qcache.self_s"] = qcacheSelf
	p50, n := histPercentile(resolve, 0.5)
	p99, _ := histPercentile(resolve, tailPercentile(int(n)))
	m["qcache.resolve_us_p50"], m["qcache.resolve_us_p99"], m["qcache.resolve_n"] = p50, p99, float64(n)

	batches := it.spans.durations("fuzz.batch")
	m["fuzz.execs"] = c("fuzz.execs")
	m["fuzz.concrete_s"] = it.spans.total("fuzz.batch")
	m["fuzz.batch_us_p50"] = percentile(batches, 0.5)
	m["fuzz.batch_n"] = float64(len(batches))
	m["fuzz.edges"] = float64(it.edges)
	m["hybrid.escalations"] = c("hybrid.escalations")
	m["hybrid.replayed_instr"] = c("hybrid.replayed_instr")
	m["hybrid.solver_s"] = it.hybridSolver.Seconds()

	m["bmc.steps"] = c("bmc.steps")
	m["bmc.solve_s"] = float64(snap.Histograms["bmc.solve_us"].Sum) / 1e6

	it.http.layers(m)

	m["go.heap_peak_mb"] = heapPeakMB
	m["go.gc_cpu_s"] = gcCPU
	m["vp.instr_per_s"] = ratio(float64(it.vpInstr), it.vpTime.Seconds())
	return m
}

// putDist stores a latency distribution (µs) as its median, its tail
// percentile and its sample count.
func putDist(m map[string]float64, prefix string, xs []float64) {
	m[prefix+"_us_p50"] = percentile(xs, 0.5)
	m[prefix+"_us_p99"] = percentile(xs, tailPercentile(len(xs)))
	m[prefix+"_n"] = float64(len(xs))
}

// heapSampler tracks the peak Go heap (live and unswept objects) of
// the process by polling runtime/metrics.
type heapSampler struct {
	stopc chan struct{}
	done  sync.WaitGroup
	peak  uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	if v := uint64(readMetric(heapMetric)); v > h.peak {
		h.peak = v
	}
}

// stop ends sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.done.Wait()
	h.sample()
	return float64(h.peak) / (1 << 20)
}

// readMetric reads one runtime/metrics value as a float.
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}
