// Package campaign is the fleet-scale layer of the repo: a long-running
// coordinator that hands a concolic path frontier (or a hybrid fuzzing
// corpus) out to worker processes, plus the HTTP control plane and the
// worker client that speak its lease protocol.
//
// The unit of distribution is the process-portable frontier input
// (cte.WireInput): workers claim a lease — a batch of pending inputs
// popped from the front of the frontier — execute exactly those inputs on their own VP
// snapshot, and return the semantic path records, the child inputs, any
// findings, and their query-cache/corpus deltas. The coordinator owns
// all dedup state (every key ever enqueued, every key ever executed),
// so crashed or slow workers can be re-assigned without losing or
// duplicating paths. See DESIGN.md "Campaign service".
package campaign

import (
	"fmt"

	"rvcte/internal/cte"
	"rvcte/internal/findfix"
	"rvcte/internal/qcache"
)

// Campaign states.
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
)

// Spec describes one campaign: the guest (six fields, which Target
// returns as a findfix.Target; they stay flat in the JSON that clients
// send and spools store) and the distribution/budget knobs. Zero values
// select the documented defaults.
type Spec struct {
	ID        string   `json:"id,omitempty"` // assigned by the coordinator
	Prog      string   `json:"prog"`
	FixList   string   `json:"fix,omitempty"`       // tcpip: bugs to patch ("1,2")
	PktMax    int      `json:"pkt_max,omitempty"`   // tcpip: symbolic packet bound
	Mode      string   `json:"mode,omitempty"`      // "concolic" (default) | "hybrid"
	Pkts      int      `json:"pkts,omitempty"`      // tcpip-session: session depth
	PktCaps   []int    `json:"pkt_caps,omitempty"`  // tcpip-session: per-packet caps
	Detectors []string `json:"detectors,omitempty"` // detector set ("all" = every kind)

	Batch      int   `json:"batch,omitempty"`        // inputs per lease (default 16)
	LeaseTTLMS int64 `json:"lease_ttl_ms,omitempty"` // lease lifetime (default 30s)

	MaxPaths     int    `json:"max_paths,omitempty"` // total path budget (0 = unlimited)
	MaxInstr     uint64 `json:"max_instr,omitempty"` // per-path instruction budget
	MaxConflicts int    `json:"max_conflicts,omitempty"`
	StopOnError  bool   `json:"stop_on_error,omitempty"` // finish at the first finding
	Seed         int64  `json:"seed,omitempty"`

	FuzzLeaseMS int64  `json:"fuzz_lease_ms,omitempty"` // hybrid: timebox per lease (default 5s)
	MaxExecs    uint64 `json:"max_execs,omitempty"`     // hybrid: total execution budget
	FuzzBatch   int    `json:"fuzz_batch,omitempty"`    // hybrid: execs between stall checks, and the stall window
	// DryEscalations ends a hybrid lease after this many consecutive
	// escalations without new coverage (0 = engine default). Stateful
	// session guests need hundreds: their state-banked coverage map
	// keeps paying out long after a single-packet guest would be done.
	DryEscalations int `json:"dry_escalations,omitempty"`
}

// Target is the guest every worker of the campaign builds.
func (s Spec) Target() findfix.Target {
	return findfix.Target{
		Prog: s.Prog, Fix: s.FixList, PktMax: s.PktMax,
		Pkts: s.Pkts, PktCaps: s.PktCaps, Detectors: s.Detectors,
	}
}

// normalize applies defaults and validates a new or spooled spec
// without building the guest.
func (s *Spec) normalize() error {
	if s.Mode == "" {
		s.Mode = "concolic"
	}
	if s.Mode != "concolic" && s.Mode != "hybrid" {
		return fmt.Errorf("campaign: unknown mode %q", s.Mode)
	}
	if s.Batch <= 0 {
		s.Batch = 16
	}
	if s.LeaseTTLMS <= 0 {
		s.LeaseTTLMS = 30_000
	}
	if s.FuzzLeaseMS <= 0 {
		s.FuzzLeaseMS = 5_000
	}
	if err := s.Target().Check(); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// PathRecord is the semantic identity of one executed path: the
// canonical input key plus the observable behavior. The coordinator
// dedups records by Key — this is the "no path lost, no path executed
// twice in the record set" guarantee of the lease protocol.
type PathRecord struct {
	Key    string `json:"key"`
	Exit   uint32 `json:"exit"`
	Err    string `json:"err,omitempty"`
	Output string `json:"out,omitempty"`
}

// Semantic is the behavior-only view of the record (model choices are
// solver-history-dependent, so cross-worker comparisons use this, not
// Key — same contract as the parallel-mode fork tests).
func (r PathRecord) Semantic() string {
	e := r.Err
	if e == "" {
		e = "<nil>"
	}
	return fmt.Sprintf("exit=%d err=%v out=%q", r.Exit, e, r.Output)
}

// WireFinding is one discovered error in process-portable form. Workers
// classify locally (they hold the ELF): Func is the containing guest
// function, Bug the Table-2 bug number for tcpip campaigns (0 when not
// applicable).
type WireFinding struct {
	Kind   string        `json:"kind"`
	PC     uint32        `json:"pc"`
	Addr   uint32        `json:"addr,omitempty"`
	Msg    string        `json:"msg"`
	Func   string        `json:"func,omitempty"`
	Bug    int           `json:"bug,omitempty"`
	Input  cte.WireInput `json:"input,omitempty"` // concolic: the solved assignment
	Data   []byte        `json:"data,omitempty"`  // hybrid: the raw input stream
	Worker string        `json:"worker,omitempty"`
}

// Key dedups findings across workers: two workers hitting the same error
// site report one finding.
func (f WireFinding) Key() string {
	return fmt.Sprintf("%s@%#x", f.Kind, f.PC)
}

// LeaseRequest is a worker's claim for work. QSeq/CSeq are the worker's
// sync cursors into the campaign's append-ordered query-cache entry and
// corpus lists; the lease response carries everything past them. Fresh
// marks a runner that has not synced yet: its query cache is empty, so
// it also gets the entries its worker id uploaded before (a restart).
type LeaseRequest struct {
	Worker string `json:"worker"`
	QSeq   int    `json:"qseq"`
	CSeq   int    `json:"cseq"`
	Fresh  bool   `json:"fresh,omitempty"`
}

// Lease is the coordinator's reply: a batch of frontier inputs (concolic)
// or a fuzzing timebox (hybrid), plus the sync deltas. An empty ID with
// Done=false means "no work right now, poll again" (other workers hold
// the remaining leases); Done=true means the campaign is finished and
// the worker should move on.
type Lease struct {
	ID     string          `json:"id,omitempty"`
	Inputs []cte.WireInput `json:"inputs,omitempty"`
	FuzzMS int64           `json:"fuzz_ms,omitempty"`
	TTLMS  int64           `json:"ttl_ms,omitempty"`

	QEntries []qcache.WireEntry `json:"qentries,omitempty"`
	QSeq     int                `json:"qseq"`
	Corpus   [][]byte           `json:"corpus,omitempty"`
	CSeq     int                `json:"cseq"`

	Done  bool   `json:"done,omitempty"`
	State string `json:"state,omitempty"`
}

// ResultStats is the worker-side accounting of one lease execution.
type ResultStats struct {
	Paths   int    `json:"paths"`
	Queries int    `json:"queries"`
	Instr   uint64 `json:"instr"`
	Execs   uint64 `json:"execs,omitempty"`
	WallMS  int64  `json:"wall_ms"`
}

// Result returns a lease's outcome to the coordinator.
type Result struct {
	Lease  string `json:"lease"`
	Worker string `json:"worker"`

	Records  []PathRecord       `json:"records,omitempty"`
	Frontier []cte.WireInput    `json:"frontier,omitempty"`
	Findings []WireFinding      `json:"findings,omitempty"`
	QEntries []qcache.WireEntry `json:"qentries,omitempty"`
	Corpus   [][]byte           `json:"corpus,omitempty"`
	Stats    ResultStats        `json:"stats"`

	// Err is set when the lease failed: the worker refused inputs it
	// could not import (Rejected holds their keys) and ran nothing.
	Err      string   `json:"err,omitempty"`
	Rejected []string `json:"rejected,omitempty"`
}

// ResultReply acknowledges a result. Duplicates counts records dropped
// because their key was already executed (a re-assigned lease whose
// original worker came back late).
type ResultReply struct {
	Accepted   bool `json:"accepted"`
	Duplicates int  `json:"duplicates"`
}

// HeartbeatReply answers a lease heartbeat. Cancel tells the worker to
// abandon the lease (expired and re-assigned, or campaign finished) —
// the worker cancels its session context.
type HeartbeatReply struct {
	OK     bool `json:"ok"`
	Cancel bool `json:"cancel"`
}

// Stats is the coordinator-side accounting of one campaign.
type Stats struct {
	Paths      int    `json:"paths"`
	Queries    int    `json:"queries"`
	Instr      uint64 `json:"instr"`
	Execs      uint64 `json:"execs,omitempty"`
	Duplicates int    `json:"duplicates"` // records dropped by executed-key dedup
	Expired    int    `json:"expired"`    // leases reclaimed after TTL
	Requeued   int    `json:"requeued"`   // leased inputs returned unexecuted
	Rejected   int    `json:"rejected"`   // leased inputs a worker refused as malformed
}

// Status is the externally visible state of a campaign.
type Status struct {
	Spec     Spec   `json:"spec"`
	State    string `json:"state"`
	Pending  int    `json:"pending"` // frontier inputs awaiting a lease
	Leases   int    `json:"leases"`  // outstanding leases
	Findings int    `json:"findings"`
	Stats    Stats  `json:"stats"`
}
