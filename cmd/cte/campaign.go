package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rvcte/internal/campaign"
	"rvcte/internal/findfix"
	"rvcte/internal/guest"
	"rvcte/internal/obs"
)

// campaignOpts carries the flag values the three campaign modes need.
type campaignOpts struct {
	serve, spool      string // coordinator
	connect, workerID string // worker
	submit            string // client
	findFix           bool

	target       findfix.Target
	fuzz         bool
	bmc          bool
	bmcK         int
	batch        int
	leaseTTL     time.Duration
	maxPaths     int
	maxInstr     uint64
	maxConflicts int
	stopOnError  bool
	seed         int64
}

// validateCampaignFlags enforces the mode matrix: -serve, -connect,
// -submit and one-shot exploration are mutually exclusive, and the
// auxiliary flags only make sense with their mode. Violations are usage
// errors (exit 2).
func validateCampaignFlags(o campaignOpts, nargs int) error {
	modes := 0
	for _, m := range []string{o.serve, o.connect, o.submit} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		return errors.New("-serve, -connect and -submit are mutually exclusive")
	}
	if o.spool != "" && o.serve == "" {
		return errors.New("-spool requires -serve")
	}
	if o.workerID != "" && o.connect == "" {
		return errors.New("-worker-id requires -connect")
	}
	if o.findFix && o.submit == "" {
		return errors.New("-findfix requires -submit")
	}
	if o.fuzz && (o.serve != "" || o.connect != "") {
		return errors.New("-fuzz selects a run mode: it cannot be combined with -serve or -connect")
	}
	if o.bmc && o.fuzz {
		return errors.New("-bmc and -fuzz are mutually exclusive run modes")
	}
	if o.bmc && (o.serve != "" || o.connect != "" || o.submit != "") {
		return errors.New("-bmc selects a run mode: it cannot be combined with -serve, -connect or -submit")
	}
	if o.bmcK != 0 && !o.bmc {
		return errors.New("-k requires -bmc")
	}
	if (o.serve != "" || o.connect != "") && (o.target.Prog != "" || nargs > 0) {
		return errors.New("-serve and -connect take no program: workers receive the campaign spec from the coordinator")
	}
	if o.submit != "" && o.target.Prog == "" {
		return errors.New("-submit requires -prog (campaigns run the built-in programs)")
	}
	if o.submit != "" && nargs > 0 {
		return errors.New("-submit cannot explore an ELF file; use -prog")
	}
	if o.findFix && (o.target.Prog != "tcpip" || o.fuzz) {
		return errors.New("-findfix is the concolic find-fix-rerun workflow for -prog tcpip")
	}
	return nil
}

// campaignMain dispatches to the selected campaign mode and returns the
// process exit code.
func campaignMain(o campaignOpts) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case o.serve != "":
		return runServe(ctx, o)
	case o.connect != "":
		return runConnect(ctx, o)
	default:
		return runSubmit(ctx, o)
	}
}

// runServe runs the coordinator: the HTTP control plane (plus the obs
// /metrics and /debug/pprof diagnostics on the same address) until
// SIGINT/SIGTERM, with campaign state spooled to -spool if given.
func runServe(ctx context.Context, o campaignOpts) int {
	ob := obs.New()
	co, err := campaign.NewCoordinator(o.spool, ob)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cte:", err)
		return 2
	}
	ln, err := net.Listen("tcp", o.serve)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cte:", err)
		return 2
	}
	srv := &http.Server{Handler: campaign.NewServer(co, ob), ReadHeaderTimeout: 5 * time.Second}
	fmt.Fprintf(os.Stderr, "cte: campaign control plane on http://%s", ln.Addr())
	if o.spool != "" {
		resumed := 0
		for _, st := range co.List() {
			if st.State == campaign.StateRunning {
				resumed++
			}
		}
		fmt.Fprintf(os.Stderr, " (spool %s, %d campaigns resumed)", o.spool, resumed)
	}
	fmt.Fprintln(os.Stderr)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shCtx)
		return 0
	case err := <-done:
		fmt.Fprintln(os.Stderr, "cte:", err)
		return 2
	}
}

// runConnect runs a worker process against a coordinator until
// SIGINT/SIGTERM.
func runConnect(ctx context.Context, o campaignOpts) int {
	err := campaign.RunWorker(ctx, campaign.WorkerOptions{
		Server: o.connect,
		ID:     o.workerID,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "cte: "+format+"\n", args...)
		},
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "cte:", err)
		return 2
	}
	return 0
}

// specFor assembles the campaign spec the -submit flags describe.
func specFor(o campaignOpts) campaign.Spec {
	t := o.target
	s := campaign.Spec{
		Prog: t.Prog, FixList: t.Fix, PktMax: t.PktMax,
		Pkts: t.Pkts, PktCaps: t.PktCaps, Detectors: t.Detectors,
		Batch: o.batch, LeaseTTLMS: o.leaseTTL.Milliseconds(),
		MaxPaths: o.maxPaths, MaxInstr: o.maxInstr, MaxConflicts: o.maxConflicts,
		StopOnError: o.stopOnError, Seed: o.seed,
	}
	if o.fuzz {
		s.Mode = "hybrid"
	}
	return s
}

func printWireFinding(stage int, f campaign.WireFinding) {
	prefix := "FINDING"
	if stage >= 0 {
		prefix = fmt.Sprintf("stage %d: FINDING", stage)
	}
	bug := ""
	if f.Bug > 0 {
		bug = fmt.Sprintf("  [table-2 bug %d]", f.Bug)
	}
	fmt.Printf("%s: %s @ %#x in %s (worker %s)%s\n", prefix, f.Kind, f.PC, f.Func, f.Worker, bug)
	fmt.Printf("  %s\n", f.Msg)
}

// runSubmit creates a campaign from the -prog flags, streams its
// findings until it completes, and exits 1 if anything was found — the
// same contract as a one-shot run. With -findfix it iterates the paper's
// §4.2.3 find-fix-rerun workflow across campaigns: each stop-on-error
// campaign stops at its first finding, the classified bug joins the fix
// list, and the loop ends when a campaign explores clean.
func runSubmit(ctx context.Context, o campaignOpts) int {
	cl := campaign.NewClient(o.submit)
	if o.findFix {
		return runFindFix(ctx, cl, o)
	}
	st, err := cl.Create(ctx, specFor(o))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cte:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "cte: campaign %s (%s) submitted to %s\n", st.Spec.ID, st.Spec.Prog, o.submit)
	found := 0
	final, err := cl.StreamFindings(ctx, st.Spec.ID, func(f campaign.WireFinding) {
		found++
		printWireFinding(-1, f)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cte:", err)
		return 2
	}
	fmt.Printf("campaign %s: %s — %d paths, %d findings (%d duplicates dropped, %d leases expired)\n",
		st.Spec.ID, final.State, final.Stats.Paths, final.Findings,
		final.Stats.Duplicates, final.Stats.Expired)
	if found > 0 {
		return 1
	}
	return 0
}

// runFindFix drives internal/findfix with one stop-on-error campaign
// per stage, starting from the -fix mask. Each campaign's first finding
// arrives classified by the worker that hit it.
func runFindFix(ctx context.Context, cl *campaign.Client, o campaignOpts) int {
	start, err := guest.ParseFixList(o.target.Fix, 1, 6)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cte:", err)
		return 2
	}
	rows, err := findfix.Run(start, 8, func(stage int, fixed uint) (findfix.Row, error) {
		so := o
		so.target = o.target.WithFixed(fixed)
		spec := specFor(so)
		spec.StopOnError = true
		st, err := cl.Create(ctx, spec)
		if err != nil {
			return findfix.Row{}, err
		}
		var row findfix.Row
		final, err := cl.StreamFindings(ctx, st.Spec.ID, func(f campaign.WireFinding) {
			if row.Clean() {
				// A finding without a kind still ends the stage unclean.
				row = findfix.Row{Bug: f.Bug, Kind: cmp.Or(f.Kind, "unknown"), PC: f.PC, Func: f.Func}
				printWireFinding(stage, f)
			}
		})
		if err != nil {
			return findfix.Row{}, err
		}
		if row.Clean() {
			fmt.Printf("stage %d: clean — %d paths, fixes [%s], campaign %s %s\n",
				stage, final.Stats.Paths, so.target.Fix, st.Spec.ID, final.State)
		}
		return row, nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cte: find-fix:", err)
		return 2
	}
	if len(rows) > 1 {
		return 1
	}
	return 0
}
