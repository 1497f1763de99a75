package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"rvcte/internal/campaign"
	"rvcte/internal/obs"
)

// campaignPoll is the workers' idle poll. The cmd/cte default (500 ms)
// would quantize wall time to whole poll periods whenever one worker
// waits for the other's children; 20 ms keeps the wait visible without
// dominating it.
const campaignPoll = 20 * time.Millisecond

// runCampaign sweeps the fully patched TCP/IP stack to exhaustion
// through the campaign service: an in-process coordinator behind its
// HTTP control plane and two workers. It covers the same path space as
// the find-fix sweep, so the lease, wire and HTTP cost shows as the gap
// between the two workloads' execs_per_s. Set-up ends when the first
// lease request arrives, after that worker has built its guest.
func runCampaign(it *iter) error {
	start := time.Now()
	o := obs.New()
	co, err := campaign.NewCoordinator("", o)
	if err != nil {
		return err
	}
	span := it.spans.begin("stage:campaign", it.root)
	probe := &httpProbe{next: campaign.NewServer(co, o), spans: it.spans, parent: span, first: make(chan struct{})}
	it.http = probe
	srv := httptest.NewServer(probe)
	defer srv.Close()

	spec := campaign.Spec{Prog: "tcpip", FixList: "1,2,3,4,5,6", PktMax: 64, Seed: it.seed}
	if it.small {
		spec.MaxPaths = campaignMaxPathsSmall
	}
	st, err := co.Create(spec)
	if err != nil {
		return err
	}
	id := st.Spec.ID
	ctx, cancel := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	defer workers.Wait()
	defer cancel()
	for _, w := range []string{"w1", "w2"} {
		workers.Add(1)
		go func(w string) {
			defer workers.Done()
			_ = campaign.RunWorker(ctx, campaign.WorkerOptions{Server: srv.URL, ID: w, Campaign: id, Poll: campaignPoll})
		}(w)
	}

	waitCtx, waitCancel := context.WithTimeout(ctx, 150*time.Second)
	defer waitCancel()
	select {
	case <-probe.first:
	case <-waitCtx.Done():
		return fmt.Errorf("campaign: no worker leased work")
	}
	it.setup += probe.firstAt.Sub(start)
	state, nFindings := campaign.StateRunning, 0
	for state == campaign.StateRunning && waitCtx.Err() == nil {
		var fs []campaign.WireFinding
		fs, state, _ = co.FindingsSince(waitCtx, id, nFindings)
		nFindings += len(fs)
	}
	it.wall += time.Since(probe.firstAt)
	it.spans.end(span)
	cancel()
	workers.Wait()

	final, err := co.Status(id)
	if err != nil {
		return err
	}
	it.execs += uint64(final.Stats.Paths)
	it.instr += final.Stats.Instr
	it.check(final.State == campaign.StateDone && final.Findings == 0 && final.Stats.Duplicates == 0 && final.Stats.Paths > 0,
		"campaign: want done with paths, no findings and no duplicates, got state=%s paths=%d findings=%d duplicates=%d",
		final.State, final.Stats.Paths, final.Findings, final.Stats.Duplicates)
	counters := o.Scoped("campaign." + id).Snapshot().Counters
	probe.duplicates, probe.expired = counters["duplicates"], counters["expired"]
	probe.stats = &final.Stats
	return nil
}

// httpProbe wraps the campaign control plane to measure it from the
// outside: the moment of the first lease request (the end of set-up)
// always, and in a traced run the request count, the bytes on the wire
// in both directions, the lease and result handler latencies, the
// leases that carried no work, and one span per request. It also keeps
// the campaign's final statistics, the workers' own path, instruction
// and solver-query counts summed over their lease results.
type httpProbe struct {
	next   http.Handler
	spans  *spanLog
	parent int

	first   chan struct{}
	once    sync.Once
	firstAt time.Time

	mu                    sync.Mutex
	requests, emptyLeases int
	wireBytes             int64
	lease, result         []float64 // µs
	duplicates, expired   int64
	stats                 *campaign.Stats
}

func (p *httpProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	route := r.URL.Path[strings.LastIndex(r.URL.Path, "/")+1:]
	isLease := r.Method == http.MethodPost && route == "lease"
	if isLease {
		p.once.Do(func() { p.firstAt = start; close(p.first) })
	}
	if p.spans == nil {
		p.next.ServeHTTP(w, r)
		return
	}
	body := &countingReader{r: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w, keep: isLease}
	p.next.ServeHTTP(cw, r)
	end := time.Now()
	p.spans.add("campaign.http:"+r.Method+" "+route, start, end, p.parent)

	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	p.wireBytes += body.n + cw.n
	switch {
	case isLease:
		p.lease = append(p.lease, micros(end.Sub(start)))
		var l campaign.Lease
		if json.Unmarshal(cw.buf.Bytes(), &l) == nil && l.ID == "" && !l.Done {
			p.emptyLeases++
		}
	case r.Method == http.MethodPost && route == "results":
		p.result = append(p.result, micros(end.Sub(start)))
	}
}

// layers reports the campaign metrics (all 0 for workloads without a
// campaign). The workers run their sessions without the benchmark's obs
// registry, so the path, instruction and query counts come from the
// statistics they report with their results; the engine metrics those
// statistics do not cover are the workload's unmeasured ones.
func (p *httpProbe) layers(m map[string]float64) {
	if p == nil {
		p = &httpProbe{}
	}
	if p.stats != nil {
		m["cte.paths"] = float64(p.stats.Paths)
		m["iss.instr"] = float64(p.stats.Instr)
		m["smt.queries"] = float64(p.stats.Queries)
	}
	m["campaign.requests"] = float64(p.requests)
	m["campaign.wire_bytes"] = float64(p.wireBytes)
	m["campaign.empty_leases"] = float64(p.emptyLeases)
	putDist(m, "campaign.lease", p.lease)
	putDist(m, "campaign.result", p.result)
	m["campaign.duplicates"] = float64(p.duplicates)
	m["campaign.expired"] = float64(p.expired)
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// countingWriter counts response bytes and, for lease replies, keeps
// the body so the probe can tell an empty lease from a working one.
type countingWriter struct {
	http.ResponseWriter
	keep bool
	buf  bytes.Buffer
	n    int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	if c.keep {
		c.buf.Write(b)
	}
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// Flush keeps the wrapped writer's streaming behaviour (the findings
// stream flushes per line).
func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
