// Package fuzz implements a coverage-guided mutational fuzzer over a
// frozen VP snapshot: the concrete-only fast path of the ISS executes
// mutated byte streams at native-ish speed, a hashed PC-pair edge bitmap
// classifies behaviours, and a corpus of coverage-distinct inputs drives
// an afl-style deterministic+havoc mutation schedule. The hybrid driver
// (internal/cte) escalates coverage-stalled entries to the concolic
// engine and injects solved inputs back through Inject.
//
// Each execution clones the frozen snapshot (copy-on-write memory) and
// runs on the ISS's predecoded basic-block cache: all clones share one
// decoded-block table, so per-execution cost is mutation + dispatch,
// not re-decoding the guest. The ISS lists the edge-map slots each run
// touches (iss.Core.EdgeTouched); only those are merged into the virgin
// map (mergeTouched) and zeroed again, so the cost after a run follows
// the edges it took, not the map size. The sparse per-entry coverage is
// built only for inputs the corpus admits, and the clone's memory is
// released so its copied pages serve the next execution. iss.bb.*
// counters expose the cache behaviour; fuzz.execs over wall time is the
// throughput headline (EXPERIMENTS.md "Block cache ablation", "Concrete
// fuzz throughput").
package fuzz

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"

	"rvcte/internal/iss"
	"rvcte/internal/obs"
)

const (
	// mapBits is log2 of the per-bank edge map size (64 KiB).
	mapBits = 16
	// maxLen caps the length of a mutated input.
	maxLen = 4096
	// detBytes bounds the deterministic stages to an input prefix so one
	// long entry cannot monopolize the schedule.
	detBytes = 64
)

// Options configures a Fuzzer.
type Options struct {
	Seed    int64 // PRNG seed; runs are reproducible for a fixed seed at Workers=1
	Workers int   // concurrent executors (default 1)
	// MaxInstrPerRun bounds one execution (0 = the snapshot's own
	// Cfg.MaxInstr); runs that exhaust it are not findings.
	MaxInstrPerRun uint64
	// States is the number of protocol-state coverage banks (stateful
	// multi-packet guests; see iss.Core.ProtoStates). The edge map gets
	// one bank per state — rounded up to a power of two — so the same
	// edge reached in different protocol states counts as new coverage.
	// 0 or 1 keeps the single flat map.
	States int
	// Seeds are initial inputs queued behind the built-in empty baseline
	// (e.g. a corpus directory loaded by the CLI). They run exactly as
	// given and join the corpus if they add coverage.
	Seeds [][]byte
	// Obs wires the fuzzer into the shared observability layer: the
	// "fuzz.*" counters and gauges behind Stats live on a child of its
	// registry, and New wires the snapshot's ISS counters to it, so
	// every clone feeds "iss.instr", "iss.execs" and "iss.bb.*". A nil
	// Obs keeps the fuzzer's counters in a registry of their own.
	Obs *obs.Obs
}

// Finding is one deduplicated crash/bug discovered by concrete execution.
type Finding struct {
	Err    *iss.SimError
	Data   []byte // the input stream that triggered it
	Exec   uint64 // global execution index of discovery
	Output []byte // guest console output of the failing run
	Instrs uint64
}

// Stats is a snapshot of fuzzer progress counters.
type Stats struct {
	Execs      uint64
	TotalInstr uint64
	CorpusSize int
	Edges      int // nonzero virgin-map entries
	Findings   int
	Injected   int    // solver-derived inputs fed back by the hybrid loop
	Pruned     uint64 // runs rejected by a concrete assume(false)
	MaxDemand  int    // largest observed input demand (bytes)
	// LastNewCover is the Execs value when coverage last grew; the
	// hybrid driver uses Execs-LastNewCover as its stall signal.
	LastNewCover uint64
}

type findingKey struct {
	kind iss.ErrKind
	pc   uint32
}

type queued struct {
	data     []byte
	injected bool
	bound    int
}

// workerState is the per-worker scratch: a private PRNG (seeded from
// Options.Seed and the worker index), a reusable edge map, all zero
// between executions, and the list of slots the last execution touched.
type workerState struct {
	rng     *rand.Rand
	edge    []byte
	touched []uint32
}

// Fuzzer owns the frozen snapshot, the corpus, and the virgin coverage
// map. All mutable state is guarded by mu; executions run outside the
// lock on cloned cores.
type Fuzzer struct {
	snap *iss.Core
	opt  Options
	ws   []*workerState

	mu        sync.Mutex
	virgin    []byte
	corpus    []*Entry
	nextID    int
	queue     []queued // unfuzzed inputs: seeds and solver injections, FIFO
	findings  []Finding
	seenBug   map[findingKey]bool
	maxDemand int

	totalInstr, lastNewCover uint64 // Stats.TotalInstr, Stats.LastNewCover

	// The "fuzz.*" handles (Options.Obs) are the only store of the
	// other Stats counters, updated under mu.
	obsExecs, obsPruned, obsFindings, obsInjected *obs.Counter
	obsCorpus, obsEdges                           *obs.Gauge
}

// New freezes snap and builds a fuzzer around it. The queue starts with
// one empty input: the first execution discovers the input demand and
// the baseline coverage.
func New(snap *iss.Core, opt Options) *Fuzzer {
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	snap.Freeze()
	mapLen := iss.EdgeBanks(opt.States) << mapBits
	f := &Fuzzer{
		snap:    snap,
		opt:     opt,
		virgin:  make([]byte, mapLen),
		seenBug: make(map[findingKey]bool),
		queue:   []queued{{data: []byte{}}},
	}
	for _, s := range opt.Seeds {
		f.queue = append(f.queue, queued{data: append([]byte(nil), s...)})
	}
	for i := 0; i < opt.Workers; i++ {
		f.ws = append(f.ws, &workerState{
			rng:  rand.New(rand.NewSource(opt.Seed + int64(i)*0x9e3779b97f4a7c)),
			edge: make([]byte, mapLen),
		})
	}
	snap.SetObs(opt.Obs)
	m := opt.Obs.Registry().Child()
	f.obsExecs = m.Counter("fuzz.execs")
	f.obsPruned = m.Counter("fuzz.pruned")
	f.obsFindings = m.Counter("fuzz.findings")
	f.obsInjected = m.Counter("fuzz.injected")
	f.obsCorpus = m.Gauge("fuzz.corpus")
	f.obsEdges = m.Gauge("fuzz.edges")
	return f
}

// RunBatch executes n fuzz iterations across the configured workers and
// returns when all have finished. At Workers=1 the schedule is fully
// deterministic for a fixed seed.
func (f *Fuzzer) RunBatch(n int) { f.RunBatchContext(context.Background(), n) }

// RunBatchContext is RunBatch honoring cancellation: workers check the
// context between executions, so the batch returns at most one
// execution per worker after ctx is done. The schedule at Workers=1 is
// unchanged for an uncancelled context.
func (f *Fuzzer) RunBatchContext(ctx context.Context, n int) {
	remaining := int64(n)
	var wg sync.WaitGroup
	for _, ws := range f.ws {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			for atomic.AddInt64(&remaining, -1) >= 0 && ctx.Err() == nil {
				f.step(ws)
			}
		}(ws)
	}
	wg.Wait()
}

// step runs one pick→mutate→execute→merge iteration.
func (f *Fuzzer) step(ws *workerState) {
	f.mu.Lock()
	q := f.pickLocked(ws.rng)
	f.mu.Unlock()
	data := q.data

	c := f.snap.Clone()
	c.ConcreteOnly = true
	c.FuzzInput = data
	c.EdgeMap = ws.edge
	c.EdgeTouched = ws.touched[:0]
	// The snapshot may carry pre-executed initialization (skip-init
	// optimization); count only this run's instructions.
	startInstr := c.InstrCount
	c.Run(f.opt.MaxInstrPerRun)
	ws.touched = c.EdgeTouched

	f.mu.Lock()
	f.mergeLocked(q, c, c.InstrCount-startInstr, ws.edge, ws.touched)
	f.mu.Unlock()
	for _, i := range ws.touched {
		ws.edge[i] = 0
	}
	c.Mem.Release()
}

// pickLocked selects the next input to execute: queued seeds/injections
// first (FIFO, run as-is so their exact coverage is recorded), then an
// energy-weighted corpus pick run through the deterministic schedule or
// havoc/splice.
func (f *Fuzzer) pickLocked(rng *rand.Rand) queued {
	if len(f.queue) > 0 {
		q := f.queue[0]
		f.queue = f.queue[1:]
		return q
	}
	if len(f.corpus) == 0 {
		// Coverage-dead snapshot: keep probing with short random inputs.
		out := make([]byte, 1+rng.Intn(16))
		for i := range out {
			out[i] = byte(rng.Intn(256))
		}
		return queued{data: out}
	}
	e := f.weightedPickLocked(rng)
	e.Picks++
	base := e.Data
	if len(base) < f.maxDemand {
		// Pad to the observed demand so mutations can reach every
		// consumed stream position (missing bytes read as zero anyway).
		base = append(append([]byte(nil), base...), make([]byte, f.maxDemand-len(base))...)
	}
	detLen := len(base)
	if detLen > detBytes {
		detLen = detBytes
	}
	if e.DetPos >= 0 && e.DetPos >= detCount(detLen) {
		e.DetPos = -1 // deterministic schedule exhausted
	}
	if e.DetPos >= 0 {
		out := detMutate(base, e.DetPos, detBytes)
		e.DetPos++
		return queued{data: out}
	}
	if len(f.corpus) > 1 && rng.Intn(4) == 0 {
		other := f.corpus[rng.Intn(len(f.corpus))]
		return queued{data: splice(rng, base, other.Data, maxLen)}
	}
	return queued{data: havoc(rng, base, maxLen)}
}

// weightedPickLocked draws a corpus entry proportionally to its energy.
func (f *Fuzzer) weightedPickLocked(rng *rand.Rand) *Entry {
	total := 0.0
	for _, e := range f.corpus {
		total += e.energy()
	}
	r := rng.Float64() * total
	for _, e := range f.corpus {
		r -= e.energy()
		if r <= 0 {
			return e
		}
	}
	return f.corpus[len(f.corpus)-1]
}

// mergeLocked folds one finished execution into the corpus, coverage,
// finding, and stats state.
func (f *Fuzzer) mergeLocked(q queued, c *iss.Core, instrs uint64, edge []byte, touched []uint32) {
	data := q.data
	f.obsExecs.Inc()
	execs := uint64(f.obsExecs.Value())
	f.totalInstr += instrs
	if c.FuzzPos > f.maxDemand {
		f.maxDemand = c.FuzzPos
	}

	if c.Err != nil {
		switch c.Err.Kind {
		case iss.ErrAssumeFail:
			f.obsPruned.Inc()
		case iss.ErrLimit:
			// Budget exhaustion is exploration noise, not a bug.
		default:
			k := findingKey{kind: c.Err.Kind, pc: c.Err.PC}
			if !f.seenBug[k] {
				f.seenBug[k] = true
				f.obsFindings.Inc()
				f.findings = append(f.findings, Finding{
					Err:    c.Err,
					Data:   append([]byte(nil), data...),
					Exec:   execs,
					Output: append([]byte(nil), c.Output...),
					Instrs: instrs,
				})
			}
		}
	}

	newBits, newEntries := mergeTouched(f.virgin, edge, touched)
	if newEntries > 0 {
		f.obsEdges.Set(f.obsEdges.Value() + int64(newEntries))
	}
	if newBits > 0 {
		f.lastNewCover = execs
	}
	// Admission: fuzz-discovered inputs must pay their way with new
	// coverage; solver-derived inputs are kept unconditionally — they sit
	// on a freshly flipped branch, and the hybrid loop must be able to
	// escalate past them even when their edge set looks familiar
	// (otherwise every exploration chain dies at the first
	// coverage-neutral generation, which pure concolic search would have
	// continued through).
	if newBits == 0 && !q.injected {
		return
	}
	_, sig := bucketize(edge, touched)
	keep := data
	if c.FuzzPos < len(keep) {
		// Unconsumed tail bytes cannot influence behaviour — trim them so
		// the corpus and its mutation surface stay at the real demand.
		keep = keep[:c.FuzzPos]
	}
	f.corpus = append(f.corpus, &Entry{
		ID:       f.nextID,
		Data:     append([]byte(nil), keep...),
		Sig:      sig,
		NewBits:  newBits,
		Exec:     execs,
		Injected: q.injected,
		Bound:    q.bound,
	})
	f.nextID++
	f.obsCorpus.Set(int64(len(f.corpus)))
}

// AddSeeds queues inputs behind the pending ones, like Options.Seeds:
// they run exactly as given and join the corpus if they add coverage.
func (f *Fuzzer) AddSeeds(seeds [][]byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range seeds {
		f.queue = append(f.queue, queued{data: append([]byte(nil), s...)})
	}
}

// Inject queues a solver-derived input for execution; the hybrid driver
// calls this with inputs solved from escalated entries. bound is an
// opaque generational tag returned with the entry by EscalationTarget
// (0 for plain seeds).
func (f *Fuzzer) Inject(data []byte, bound int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queue = append(f.queue, queued{data: append([]byte(nil), data...), injected: true, bound: bound})
	f.obsInjected.Inc()
}

// EscalationTarget picks the corpus entry most deserving of concolic
// attention — fewest prior escalations, newest first (a freshly
// discovered path is exactly where unexplored branches live, so solved
// inputs chain into deeper escalations Driller-style) — marks it
// escalated, and returns a copy of its input together with its
// generational bound. ok is false when the corpus is empty.
func (f *Fuzzer) EscalationTarget() (data []byte, bound int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var best *Entry
	for _, e := range f.corpus {
		if best == nil ||
			e.Escalations < best.Escalations ||
			(e.Escalations == best.Escalations && e.ID > best.ID) {
			best = e
		}
	}
	if best == nil {
		return nil, 0, false
	}
	best.Escalations++
	return append([]byte(nil), best.Data...), best.Bound, true
}

// EdgeCovered reports whether any execution this campaign has taken the
// control-flow edge from→to in ANY protocol-state bank (virgin-map
// granularity, so hash collisions can report false positives). The
// hybrid driver consults this before paying solver time for a branch
// flip whose target the fuzzer already reaches; checking all banks
// keeps that filter conservative — a flip is only "new" when no state
// has seen the edge.
func (f *Fuzzer) EdgeCovered(from, to uint32) bool {
	banks := iss.EdgeBanks(f.opt.States)
	bankLen := len(f.virgin) / banks
	idx := int(iss.EdgeIndex(from, to, bankLen))
	f.mu.Lock()
	defer f.mu.Unlock()
	for b := 0; b < banks; b++ {
		if f.virgin[b*bankLen+idx] != 0 {
			return true
		}
	}
	return false
}

// SinceNewCover reports executions elapsed since coverage last grew —
// the hybrid loop's stall signal.
func (f *Fuzzer) SinceNewCover() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return uint64(f.obsExecs.Value()) - f.lastNewCover
}

// Corpus returns a snapshot of the current corpus entries (shared
// pointers; callers must treat them as read-only).
func (f *Fuzzer) Corpus() []*Entry {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Entry(nil), f.corpus...)
}

// Findings returns the deduplicated findings discovered so far, ordered
// by discovery.
func (f *Fuzzer) Findings() []Finding {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Finding(nil), f.findings...)
}

// Stats returns a snapshot of the progress counters.
func (f *Fuzzer) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{
		Execs:        uint64(f.obsExecs.Value()),
		TotalInstr:   f.totalInstr,
		CorpusSize:   len(f.corpus),
		Edges:        int(f.obsEdges.Value()),
		Findings:     len(f.findings),
		Injected:     int(f.obsInjected.Value()),
		Pruned:       uint64(f.obsPruned.Value()),
		MaxDemand:    f.maxDemand,
		LastNewCover: f.lastNewCover,
	}
}
