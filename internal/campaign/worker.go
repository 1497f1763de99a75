package campaign

import (
	"context"
	"fmt"
	"os"
	"time"
)

// WorkerOptions configures one worker process.
type WorkerOptions struct {
	Server   string        // coordinator address ("host:port" or URL)
	ID       string        // stable worker identity (default host-pid)
	Campaign string        // serve only this campaign ("" = every running one)
	Poll     time.Duration // idle poll interval (default 500ms)
	Logf     func(format string, args ...any)
}

func (o *WorkerOptions) normalize() {
	if o.ID == "" {
		host, _ := os.Hostname()
		o.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.Poll <= 0 {
		o.Poll = 500 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// RunWorker is a worker process's main loop: discover running
// campaigns, claim leases, execute them on a local Runner and return
// results, until ctx is canceled. Per-campaign state (snapshot,
// builder, query cache, sync cursors) persists across leases. A lease
// is executed under a child context that a heartbeat loop cancels when
// the coordinator rejects the lease (expired, or the campaign ended) —
// the partial result is still reported and the coordinator's dedup
// sorts it out.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	opts.normalize()
	cl := NewClient(opts.Server)
	runners := map[string]*Runner{}

	for ctx.Err() == nil {
		worked, err := workerPass(ctx, cl, opts, runners)
		if err != nil && ctx.Err() == nil {
			opts.Logf("worker %s: %v", opts.ID, err)
		}
		if !worked {
			select {
			case <-ctx.Done():
			case <-time.After(opts.Poll):
			}
		}
	}
	return ctx.Err()
}

// workerPass claims and executes at most one lease per running
// campaign; it reports whether any work was done.
func workerPass(ctx context.Context, cl *Client, opts WorkerOptions, runners map[string]*Runner) (bool, error) {
	var specs []Spec
	if opts.Campaign != "" {
		st, err := cl.Get(ctx, opts.Campaign)
		if err != nil {
			return false, err
		}
		specs = []Spec{st.Spec}
	} else {
		sts, err := cl.List(ctx)
		if err != nil {
			return false, err
		}
		for _, st := range sts {
			if st.State == StateRunning {
				specs = append(specs, st.Spec)
			}
		}
	}

	worked := false
	for _, spec := range specs {
		r := runners[spec.ID]
		if r == nil {
			var err error
			if r, err = NewRunner(spec); err != nil {
				return worked, err
			}
			runners[spec.ID] = r
		}
		l, err := cl.Lease(ctx, spec.ID, r.Request(opts.ID))
		if err != nil {
			return worked, err
		}
		r.Sync(l)
		if l.Done {
			delete(runners, spec.ID)
			continue
		}
		if l.ID == "" {
			continue // others hold the frontier; poll again
		}
		worked = true
		res := executeLease(ctx, cl, opts, r, spec.ID, l)
		res.Worker = opts.ID
		if _, err := cl.Result(ctx, spec.ID, res); err != nil {
			return worked, err
		}
		if res.Err != "" {
			opts.Logf("worker %s: failed %s", opts.ID, res.Err)
			continue
		}
		opts.Logf("worker %s: lease %s: %d paths, %d children, %d findings",
			opts.ID, l.ID, len(res.Records), len(res.Frontier), len(res.Findings))
	}
	return worked, nil
}

// executeLease runs one lease under a heartbeat loop. The heartbeat
// fires every TTL/3; a Cancel reply (or an unreachable coordinator past
// the lease deadline) cancels the session context.
func executeLease(ctx context.Context, cl *Client, opts WorkerOptions, r *Runner, campID string, l Lease) Result {
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ttl := time.Duration(l.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-leaseCtx.Done():
				return
			case <-t.C:
				hb, err := cl.Heartbeat(leaseCtx, campID, l.ID)
				if err == nil && hb.Cancel {
					cancel()
					return
				}
			}
		}
	}()
	res := r.Run(leaseCtx, l)
	close(stop)
	return res
}
