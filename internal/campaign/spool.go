package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
// leases persist as the front of the frontier: their unexecuted inputs
// come first and the lease ids are forgotten, so a restart re-leases
// them, a worker finishing a pre-crash lease reports against an unknown
// lease, and the executed-key dedup keeps its records exactly-once.

// spoolCampaign is the persisted form of one campaign. A spool is
// decoded strictly: a field this version does not know fails the load
// rather than vanish with the work it held.
type spoolCampaign struct {
	Spec     Spec               `json:"spec"`
	State    string             `json:"state"`
	Frontier []cte.WireInput    `json:"frontier,omitempty"`
	Seen     []string           `json:"seen,omitempty"`
	Executed []string           `json:"executed,omitempty"`
	Records  []PathRecord       `json:"records,omitempty"`
	Findings []WireFinding      `json:"findings,omitempty"`
	Corpus   [][]byte           `json:"corpus,omitempty"`
	QEntries []qcache.WireEntry `json:"qentries,omitempty"`
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
		sc.Frontier = append(sc.Frontier, c.unexecuted(c.leases[id].inputs)...)
	}
	sc.Frontier = append(sc.Frontier, c.frontier...)

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
// corrupt file must fail the load, not name an unknown guest or a file
// outside the spool for the next persist to write, ship malformed or
// duplicate cache entries in its leases, or count paths it has no
// records of.
func (sc *spoolCampaign) check(name string) error {
	if sc.Spec.ID+".json" != name {
		return fmt.Errorf("campaign id %q", sc.Spec.ID)
	}
	keys := make(map[uint64]bool, len(sc.QEntries))
	for i, q := range sc.QEntries {
		if !q.Valid() {
			return fmt.Errorf("malformed cache entry %d", i)
		}
		if keys[q.Key] {
			return fmt.Errorf("duplicate cache entry key %d", q.Key)
		}
		keys[q.Key] = true
	}
	if sc.Stats.Paths != len(sc.Records) {
		return fmt.Errorf("stats count %d paths for %d records", sc.Stats.Paths, len(sc.Records))
	}
	return sc.Spec.normalize()
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
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sc); err != nil {
			return fmt.Errorf("campaign: spool %s: %v", name, err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return fmt.Errorf("campaign: spool %s: data after the campaign", name)
		}
		if err := sc.check(name); err != nil {
			return fmt.Errorf("campaign: spool %s: %v", name, err)
		}
		c := newCampaign(sc.Spec)
		c.state = sc.State
		c.frontier = sc.Frontier
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
		c.wireMetrics(co.obs)
		// The counters resume where the spooled accounting left off.
		c.mPaths.Add(int64(sc.Stats.Paths))
		c.mDup.Add(int64(sc.Stats.Duplicates))
		c.mExpired.Add(int64(sc.Stats.Expired))
		c.mFindings.Add(int64(len(c.findings)))
		co.campaigns[sc.Spec.ID] = c
		if n, err := strconv.Atoi(strings.TrimPrefix(sc.Spec.ID, "c")); err == nil && n > co.nextID {
			co.nextID = n
		}
	}
	return nil
}
