package campaign

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"rvcte/internal/cte"
	"rvcte/internal/fuzz"
	"rvcte/internal/obs"
	"rvcte/internal/qcache"
)

// Coordinator owns the campaigns of one control plane: the frontier
// queues, the lease table, and all dedup state. Every public method
// is safe for concurrent use; one mutex guards everything (the work
// units — path executions — are orders of magnitude more expensive than
// any bookkeeping here, so a single lock never contends meaningfully).
//
// Lease lifecycle: a batch of inputs pops off the front of the
// campaign's frontier into a lease with a TTL deadline. Heartbeats
// extend the deadline; a lease past its deadline is swept on the next
// public call — its unexecuted inputs return to the *front* of the
// frontier (oldest work first) and the lease id is forgotten, so the
// original worker's late result is still accepted but its records land
// in the executed-key dedup.
type Coordinator struct {
	mu        sync.Mutex
	cond      *sync.Cond // broadcast on any campaign mutation
	campaigns map[string]*campaign
	spool     string
	obs       *obs.Obs
	nextID    int
	now       func() time.Time // injectable for lease-expiry tests
}

type lease struct {
	id       string
	worker   string
	inputs   []cte.WireInput // none for hybrid timeboxes
	deadline time.Time
}

type campaign struct {
	spec  Spec
	state string

	frontier    []cte.WireInput // pending inputs (FIFO)
	seen        map[string]bool // every input key ever enqueued
	executed    map[string]bool // every input key with an accepted record
	records     []PathRecord
	findings    []WireFinding
	findingKeys map[string]bool
	corpus      [][]byte // append-ordered; CSeq cursors index into it
	corpusIDs   map[string]bool
	qentries    []qcache.WireEntry // append-ordered; QSeq cursors index into it
	qfrom       []string           // qfrom[i] uploaded qentries[i]; "" when unknown (spooled)
	qkeys       map[uint64]bool
	leases      map[string]*lease
	leaseSeq    int
	stats       Stats

	// Scoped metrics (campaign.<id>.*) in the coordinator's registry.
	mPaths, mFindings, mDup, mExpired *obs.Counter
	gPending, gLeases                 *obs.Gauge
}

// NewCoordinator creates a coordinator. With a non-empty spool
// directory, campaign state persists across restarts: every mutation
// rewrites <spool>/<id>.json atomically, and a new coordinator over the
// same directory resumes every campaign mid-flight (outstanding leases
// are returned to the frontier — the workers holding them will be
// re-leased the same inputs and any late duplicate results are dropped
// by the executed-key dedup).
func NewCoordinator(spool string, o *obs.Obs) (*Coordinator, error) {
	co := &Coordinator{
		campaigns: map[string]*campaign{},
		spool:     spool,
		obs:       o,
		now:       time.Now,
	}
	co.cond = sync.NewCond(&co.mu)
	if spool != "" {
		if err := co.loadSpool(); err != nil {
			return nil, err
		}
	}
	return co, nil
}

// Create registers a new campaign and seeds its frontier with the root
// input (the all-free assignment).
func (co *Coordinator) Create(spec Spec) (Status, error) {
	if err := spec.normalize(); err != nil {
		return Status{}, err
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	co.nextID++
	spec.ID = fmt.Sprintf("c%d", co.nextID)
	c := newCampaign(spec)
	if spec.Mode == "concolic" {
		root := cte.WireInput{}
		c.seen[root.Key()] = true
		c.frontier = append(c.frontier, root)
	}
	c.wireMetrics(co.obs)
	co.campaigns[spec.ID] = c
	co.cond.Broadcast()
	if err := co.persistLocked(c); err != nil {
		delete(co.campaigns, spec.ID)
		return Status{}, err
	}
	return co.statusLocked(c), nil
}

func newCampaign(spec Spec) *campaign {
	return &campaign{
		spec:        spec,
		state:       StateRunning,
		seen:        map[string]bool{},
		executed:    map[string]bool{},
		findingKeys: map[string]bool{},
		corpusIDs:   map[string]bool{},
		qkeys:       map[uint64]bool{},
		leases:      map[string]*lease{},
	}
}

func (c *campaign) wireMetrics(o *obs.Obs) {
	s := o.Scoped("campaign." + c.spec.ID).Registry()
	c.mPaths = s.Counter("paths")
	c.mFindings = s.Counter("findings")
	c.mDup = s.Counter("duplicates")
	c.mExpired = s.Counter("expired")
	c.gPending = s.Gauge("pending")
	c.gLeases = s.Gauge("leases")
}

func (c *campaign) gauges() {
	c.gPending.Set(int64(len(c.frontier)))
	c.gLeases.Set(int64(len(c.leases)))
}

// get must hold co.mu.
func (co *Coordinator) get(id string) (*campaign, error) {
	c := co.campaigns[id]
	if c == nil {
		return nil, fmt.Errorf("campaign: no campaign %q", id)
	}
	return c, nil
}

// sweepLocked reclaims expired leases: their unexecuted inputs return
// to the front of the frontier (lazy expiry — runs on every public call,
// so an idle coordinator converges as soon as anyone talks to it).
func (co *Coordinator) sweepLocked(c *campaign) {
	now := co.now()
	for id, l := range c.leases {
		if !now.After(l.deadline) {
			continue
		}
		delete(c.leases, id)
		c.stats.Expired++
		c.mExpired.Inc()
		co.requeueLocked(c, l)
	}
}

// requeueLocked returns a lease's not-yet-executed inputs to the front
// of the frontier and reports how many there were.
func (co *Coordinator) requeueLocked(c *campaign, l *lease) int {
	back := c.unexecuted(l.inputs)
	if len(back) > 0 {
		c.frontier = append(back, c.frontier...)
	}
	return len(back)
}

// unexecuted returns the inputs of ins without an accepted record.
func (c *campaign) unexecuted(ins []cte.WireInput) []cte.WireInput {
	var out []cte.WireInput
	for _, in := range ins {
		if !c.executed[in.Key()] {
			out = append(out, in)
		}
	}
	return out
}

// checkDoneLocked transitions a running campaign to done when its
// termination condition holds.
func (co *Coordinator) checkDoneLocked(c *campaign) {
	if c.state != StateRunning {
		return
	}
	switch {
	case c.spec.StopOnError && len(c.findings) > 0:
	case c.spec.MaxPaths > 0 && c.stats.Paths >= c.spec.MaxPaths:
	case c.spec.MaxExecs > 0 && c.stats.Execs >= c.spec.MaxExecs:
	case c.spec.Mode == "concolic" && len(c.frontier) == 0 && len(c.leases) == 0:
	default:
		return
	}
	c.state = StateDone
	co.persistLocked(c)
	co.cond.Broadcast()
}

// Lease claims work for a worker. Concolic campaigns hand out a batch
// from the front of the frontier; hybrid campaigns hand out fuzzing
// timeboxes. The reply always carries the query-cache and corpus deltas
// past the request's sync cursors, less the query-cache entries the
// requester uploaded itself: its cache holds them already. A Fresh
// request gets every entry, so a worker restarted under the same id
// rebuilds its cache; entries of unknown uploader go to every worker.
func (co *Coordinator) Lease(id string, req LeaseRequest) (Lease, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c, err := co.get(id)
	if err != nil {
		return Lease{}, err
	}
	co.sweepLocked(c)
	co.checkDoneLocked(c)
	defer c.gauges()

	l := Lease{QSeq: len(c.qentries), CSeq: len(c.corpus), State: c.state}
	for i := req.QSeq; i >= 0 && i < len(c.qentries); i++ {
		if from := c.qfrom[i]; req.Fresh || from == "" || from != req.Worker {
			l.QEntries = append(l.QEntries, c.qentries[i])
		}
	}
	if req.CSeq >= 0 && req.CSeq < len(c.corpus) {
		l.Corpus = append([][]byte(nil), c.corpus[req.CSeq:]...)
	}
	if c.state != StateRunning {
		l.Done = true
		return l, nil
	}

	c.leaseSeq++
	lid := fmt.Sprintf("%s-l%d", c.spec.ID, c.leaseSeq)
	ttl := time.Duration(c.spec.LeaseTTLMS) * time.Millisecond

	if c.spec.Mode == "hybrid" {
		c.leases[lid] = &lease{id: lid, worker: req.Worker, deadline: co.now().Add(ttl)}
		l.ID, l.FuzzMS, l.TTLMS = lid, c.spec.FuzzLeaseMS, c.spec.LeaseTTLMS
		co.persistLocked(c)
		return l, nil
	}

	batch := co.popBatchLocked(c)
	if len(batch) == 0 {
		// Nothing pending: either other workers hold the rest (poll
		// again) or the campaign just finished.
		co.checkDoneLocked(c)
		l.Done = c.state != StateRunning
		l.State = c.state
		return l, nil
	}
	c.leases[lid] = &lease{id: lid, worker: req.Worker, inputs: batch, deadline: co.now().Add(ttl)}
	l.ID, l.Inputs, l.TTLMS = lid, batch, c.spec.LeaseTTLMS
	co.persistLocked(c)
	return l, nil
}

// popBatchLocked pops up to Batch inputs off the front of the frontier,
// skipping any key that has been executed since it was enqueued (a late
// result beat the queue).
func (co *Coordinator) popBatchLocked(c *campaign) []cte.WireInput {
	var batch []cte.WireInput
	for len(batch) < c.spec.Batch && len(c.frontier) > 0 {
		in := c.frontier[0]
		c.frontier = c.frontier[1:]
		if c.executed[in.Key()] {
			continue
		}
		batch = append(batch, in)
	}
	return batch
}

// Heartbeat extends a lease's deadline. Cancel in the reply tells the
// worker to abandon the lease: it is unknown (expired and reclaimed) or
// the campaign is no longer running.
func (co *Coordinator) Heartbeat(id, leaseID string) (HeartbeatReply, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c, err := co.get(id)
	if err != nil {
		return HeartbeatReply{}, err
	}
	co.sweepLocked(c)
	l := c.leases[leaseID]
	if l == nil || c.state != StateRunning {
		return HeartbeatReply{OK: l != nil, Cancel: true}, nil
	}
	l.deadline = co.now().Add(time.Duration(c.spec.LeaseTTLMS) * time.Millisecond)
	return HeartbeatReply{OK: true}, nil
}

// Result merges a lease's outcome. Late results (expired or unknown
// leases) are still merged — the executed-key dedup guarantees every
// path key contributes exactly one record no matter how many workers
// ran it. Inputs the worker did not execute (a stop-on-error lease that
// ended early) return to the front of the frontier.
func (co *Coordinator) Result(id string, res Result) (ResultReply, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c, err := co.get(id)
	if err != nil {
		return ResultReply{}, err
	}
	co.sweepLocked(c)
	if c.state == StateCanceled {
		return ResultReply{}, nil
	}
	reply := ResultReply{Accepted: true}
	// The uploader of the result's query-cache entries: the lease holder
	// when the lease is still known, else the worker the result names.
	from := res.Worker
	if l := c.leases[res.Lease]; l != nil {
		from = l.worker
	}

	// An input a worker could not import would fail every worker that
	// leased it: drop it, as if it had run.
	for _, k := range res.Rejected {
		if !c.executed[k] {
			c.executed[k] = true
			c.stats.Rejected++
		}
	}
	for _, r := range res.Records {
		if c.executed[r.Key] {
			c.stats.Duplicates++
			c.mDup.Inc()
			reply.Duplicates++
			continue
		}
		c.executed[r.Key] = true
		c.records = append(c.records, r)
		c.stats.Paths++
		c.mPaths.Inc()
	}
	if l := c.leases[res.Lease]; l != nil {
		delete(c.leases, res.Lease)
		c.stats.Requeued += co.requeueLocked(c, l)
	}
	for _, ch := range res.Frontier {
		k := ch.Key()
		if c.seen[k] || c.executed[k] {
			continue
		}
		c.seen[k] = true
		c.frontier = append(c.frontier, ch)
	}
	for _, f := range res.Findings {
		if k := f.Key(); !c.findingKeys[k] {
			c.findingKeys[k] = true
			if f.Worker == "" {
				f.Worker = res.Worker
			}
			c.findings = append(c.findings, f)
			c.mFindings.Inc()
		}
	}
	for _, e := range res.QEntries {
		if e.Valid() && !c.qkeys[e.Key] {
			c.qkeys[e.Key] = true
			c.qentries = append(c.qentries, e)
			c.qfrom = append(c.qfrom, from)
		}
	}
	for _, in := range res.Corpus {
		if id := fuzz.InputID(in); !c.corpusIDs[id] {
			c.corpusIDs[id] = true
			c.corpus = append(c.corpus, in)
		}
	}
	c.stats.Queries += res.Stats.Queries
	c.stats.Instr += res.Stats.Instr
	c.stats.Execs += res.Stats.Execs

	co.checkDoneLocked(c)
	c.gauges()
	co.persistLocked(c)
	co.cond.Broadcast()
	return reply, nil
}

// Cancel stops a campaign: outstanding leases are dropped (their
// workers learn via heartbeat/lease rejection) and the frontier is
// frozen as-is.
func (co *Coordinator) Cancel(id string) (Status, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c, err := co.get(id)
	if err != nil {
		return Status{}, err
	}
	if c.state == StateRunning {
		c.state = StateCanceled
		c.leases = map[string]*lease{}
		co.persistLocked(c)
		co.cond.Broadcast()
	}
	return co.statusLocked(c), nil
}

// Status reports one campaign.
func (co *Coordinator) Status(id string) (Status, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c, err := co.get(id)
	if err != nil {
		return Status{}, err
	}
	co.sweepLocked(c)
	co.checkDoneLocked(c)
	return co.statusLocked(c), nil
}

// List reports every campaign, sorted by id.
func (co *Coordinator) List() []Status {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]Status, 0, len(co.campaigns))
	for _, c := range co.campaigns {
		co.sweepLocked(c)
		co.checkDoneLocked(c)
		out = append(out, co.statusLocked(c))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.ID < out[j].Spec.ID })
	return out
}

func (co *Coordinator) statusLocked(c *campaign) Status {
	return Status{
		Spec:     c.spec,
		State:    c.state,
		Pending:  len(c.frontier),
		Leases:   len(c.leases),
		Findings: len(c.findings),
		Stats:    c.stats,
	}
}

// Records returns the accepted path records of a campaign (a copy).
func (co *Coordinator) Records(id string) ([]PathRecord, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c, err := co.get(id)
	if err != nil {
		return nil, err
	}
	return append([]PathRecord(nil), c.records...), nil
}

// FindingsSince blocks until the campaign has findings past from, the
// campaign leaves the running state, or ctx is done; it returns the new
// findings and the campaign state (the NDJSON stream's pump).
func (co *Coordinator) FindingsSince(ctx context.Context, id string, from int) ([]WireFinding, string, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	stop := context.AfterFunc(ctx, co.cond.Broadcast)
	defer stop()
	for {
		c, err := co.get(id)
		if err != nil {
			return nil, "", err
		}
		co.sweepLocked(c)
		co.checkDoneLocked(c)
		if from > len(c.findings) {
			from = len(c.findings)
		}
		if len(c.findings) > from || c.state != StateRunning || ctx.Err() != nil {
			return append([]WireFinding(nil), c.findings[from:]...), c.state, ctx.Err()
		}
		co.cond.Wait()
	}
}
