package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"rvcte/internal/cte"
	"rvcte/internal/fuzz"
	"rvcte/internal/qcache"
)

// Spool persistence. Every campaign mutation rewrites
// <spool>/<id>.json with the whole campaign state — temp file plus
// atomic rename, the same crash-safety discipline as qcache.Save — so a
// coordinator killed at any instant leaves a loadable spool. Outstanding
// leases persist as their input batches: on restore they return to the
// front of their shards and the lease ids are forgotten, so a worker
// finishing a pre-crash lease reports against an unknown lease and the
// executed-key dedup keeps its records exactly-once.

// spoolLease is the persisted form of an outstanding lease.
type spoolLease struct {
	Shard  int             `json:"shard"`
	Inputs []cte.WireInput `json:"inputs,omitempty"`
}

// spoolCampaign is the persisted form of one campaign.
type spoolCampaign struct {
	Spec     Spec               `json:"spec"`
	State    string             `json:"state"`
	Shards   [][]cte.WireInput  `json:"shards"`
	Seen     []string           `json:"seen,omitempty"`
	Executed []string           `json:"executed,omitempty"`
	Records  []PathRecord       `json:"records,omitempty"`
	Findings []WireFinding      `json:"findings,omitempty"`
	Corpus   [][]byte           `json:"corpus,omitempty"`
	QEntries []qcache.WireEntry `json:"qentries,omitempty"`
	Leases   []spoolLease       `json:"leases,omitempty"`
	LeaseSeq int                `json:"lease_seq"`
	Stats    Stats              `json:"stats"`
}

// persistLocked writes c to the spool (no-op without one). Must hold
// co.mu. Persistence failures are surfaced on campaign creation and
// swallowed afterwards: a full disk must not take the live fleet down,
// it only degrades restart fidelity.
func (co *Coordinator) persistLocked(c *campaign) error {
	if co.spool == "" {
		return nil
	}
	sc := spoolCampaign{
		Spec:     c.spec,
		State:    c.state,
		Shards:   c.shards,
		Seen:     sortedKeys(c.seen),
		Executed: sortedKeys(c.executed),
		Records:  c.records,
		Findings: c.findings,
		Corpus:   c.corpus,
		QEntries: c.qentries,
		LeaseSeq: c.leaseSeq,
		Stats:    c.stats,
	}
	leaseIDs := make([]string, 0, len(c.leases))
	for id := range c.leases {
		leaseIDs = append(leaseIDs, id)
	}
	sort.Strings(leaseIDs)
	for _, id := range leaseIDs {
		l := c.leases[id]
		sc.Leases = append(sc.Leases, spoolLease{Shard: l.shard, Inputs: l.inputs})
	}

	path := filepath.Join(co.spool, c.spec.ID+".json")
	f, err := os.CreateTemp(co.spool, c.spec.ID+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(&sc); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	// Rename must not be reordered before the data reaches disk.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// check normalizes and validates a campaign spooled as file name: a
// corrupt file must fail the load, not index a missing shard or name a
// file outside the spool for the next persist to write.
func (sc *spoolCampaign) check(name string) error {
	if sc.Spec.ID+".json" != name {
		return fmt.Errorf("campaign id %q", sc.Spec.ID)
	}
	if err := sc.Spec.normalize(); err != nil {
		return err
	}
	if len(sc.Shards) != sc.Spec.Shards {
		return fmt.Errorf("%d frontier shards, spec has %d", len(sc.Shards), sc.Spec.Shards)
	}
	for _, l := range sc.Leases {
		if l.Shard < -1 || l.Shard >= sc.Spec.Shards { // -1: a hybrid timebox
			return fmt.Errorf("lease on shard %d of %d", l.Shard, sc.Spec.Shards)
		}
	}
	return nil
}

// loadSpool restores every persisted campaign. Must run before the
// coordinator serves (called from NewCoordinator).
func (co *Coordinator) loadSpool() error {
	if err := os.MkdirAll(co.spool, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(co.spool)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") || strings.Contains(name, ".tmp-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(co.spool, name))
		if err != nil {
			return err
		}
		var sc spoolCampaign
		if err := json.Unmarshal(data, &sc); err != nil {
			return fmt.Errorf("campaign: spool %s: %v", name, err)
		}
		if err := sc.check(name); err != nil {
			return fmt.Errorf("campaign: spool %s: %v", name, err)
		}
		c := newCampaign(sc.Spec)
		c.state = sc.State
		c.shards = sc.Shards
		for _, k := range sc.Seen {
			c.seen[k] = true
		}
		for _, k := range sc.Executed {
			c.executed[k] = true
		}
		c.records = sc.Records
		c.findings = sc.Findings
		for _, f := range sc.Findings {
			c.findingKeys[f.Key()] = true
		}
		c.corpus = sc.Corpus
		for _, in := range sc.Corpus {
			c.corpusIDs[fuzz.InputID(in)] = true
		}
		c.qentries = sc.QEntries
		c.qfrom = make([]string, len(sc.QEntries))
		for _, q := range sc.QEntries {
			c.qkeys[q.Key] = true
		}
		c.leaseSeq = sc.LeaseSeq
		c.stats = sc.Stats
		// In-flight leases died with the old coordinator: their inputs
		// go back to the front of their shards for re-assignment.
		for _, l := range sc.Leases {
			co.requeueLocked(c, &lease{shard: l.Shard, inputs: l.Inputs})
		}
		c.wireMetrics(co.obs)
		co.campaigns[sc.Spec.ID] = c
		if n, err := strconv.Atoi(strings.TrimPrefix(sc.Spec.ID, "c")); err == nil && n > co.nextID {
			co.nextID = n
		}
	}
	return nil
}
