package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spoolSpec is the normalized spec of a spooled storm-s campaign c1,
// less its closing brace.
const spoolSpec = `{"id":"c1","prog":"storm-s","mode":"concolic","batch":16,"lease_ttl_ms":30000,"fuzz_lease_ms":5000`

// corruptSpools are campaign files a coordinator must refuse to resume.
var corruptSpools = []struct {
	name, json, err string
}{
	{
		"spool of the sharded frontier",
		`{"spec":` + spoolSpec + `,"shards":4},"state":"running","shards":[[],[{}],[],[]],"leases":[{"shard":0,"inputs":[{}]}]}`,
		`unknown field "shards"`,
	},
	{
		"unknown field",
		`{"spec":` + spoolSpec + `},"state":"running","frontier":[{}],"paused":true}`,
		`unknown field "paused"`,
	},
	{
		"data after the campaign",
		`{"spec":` + spoolSpec + `},"state":"running"}{}`,
		"data after the campaign",
	},
	{
		"unknown program",
		`{"spec":` + strings.Replace(spoolSpec, "storm-s", "no-such-guest", 1) + `},"state":"running"}`,
		`unknown program "no-such-guest"`,
	},
	{
		"id names another file",
		`{"spec":` + strings.Replace(spoolSpec, `"c1"`, `"../c1"`, 1) + `},"state":"running"}`,
		`campaign id "../c1"`,
	},
	{
		"malformed cache entry",
		`{"spec":` + spoolSpec + `},"state":"running","qentries":[{"k":1,"e":[5,3],"s":true}]}`,
		"malformed cache entry 0",
	},
	{
		"duplicate cache entry key",
		`{"spec":` + spoolSpec + `},"state":"running","qentries":[{"k":1,"e":[7]},{"k":1,"e":[8]}]}`,
		"duplicate cache entry key 1",
	},
	{
		"entries with no elements",
		`{"spec":` + spoolSpec + `},"state":"running","qentries":[{"k":1,"e":[7]},{"k":2,"e":[]}]}`,
		"malformed cache entry 1",
	},
	{
		"paths without records",
		`{"spec":` + spoolSpec + `},"state":"running","stats":{"paths":9}}`,
		"stats count 9 paths for 0 records",
	},
}

// writeSpool writes data as campaign c1's spool file in a fresh
// directory and returns the directory.
func writeSpool(t testing.TB, data []byte) string {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "c1.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestLoadSpoolRejectsCorrupt(t *testing.T) {
	for _, tc := range corruptSpools {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCoordinator(writeSpool(t, []byte(tc.json)), nil)
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("err %v, want one containing %q", err, tc.err)
			}
		})
	}
}

// FuzzLoadSpool: a coordinator restarted over a spool holding any bytes
// as a campaign file either refuses the file or resumes a campaign that
// serves leases whose cache entries are all valid and whose status
// counts one path per record; it never panics. The seed corpus is a
// spool the coordinator wrote with a lease outstanding, the corrupt
// files, and a sound spool with records and cache entries.
func FuzzLoadSpool(f *testing.F) {
	dir := f.TempDir()
	co, err := NewCoordinator(dir, nil)
	if err != nil {
		f.Fatal(err)
	}
	st, err := co.Create(Spec{Prog: "storm-s", Batch: 1})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := co.Lease(st.Spec.ID, LeaseRequest{Worker: "w"}); err != nil {
		f.Fatal(err)
	}
	if _, err := NewCoordinator(dir, nil); err != nil {
		f.Fatalf("a spool the coordinator wrote does not load: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, st.Spec.ID+".json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, tc := range corruptSpools {
		f.Add([]byte(tc.json))
	}
	// A sound spool with a record and cache entries, so the seeds reach
	// the lease and status checks with entries to ship.
	sound := `{"spec":` + spoolSpec + `},"state":"running","frontier":[{}],"records":[{"key":"k0","exit":0}],` +
		`"qentries":[{"k":1,"e":[3,5],"s":true,"m":{"x":1}},{"k":2,"e":[4]}],"stats":{"paths":1}}`
	if _, err := NewCoordinator(writeSpool(f, []byte(sound)), nil); err != nil {
		f.Fatalf("a sound spool does not load: %v", err)
	}
	f.Add([]byte(sound))
	f.Fuzz(func(t *testing.T, data []byte) {
		co, err := NewCoordinator(writeSpool(t, data), nil)
		if err != nil {
			return
		}
		for _, st := range co.List() {
			recs, err := co.Records(st.Spec.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st.Stats.Paths != len(recs) {
				t.Fatalf("status counts %d paths for %d records", st.Stats.Paths, len(recs))
			}
			l, err := co.Lease(st.Spec.ID, LeaseRequest{Worker: "w", Fresh: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range l.QEntries {
				if !q.Valid() {
					t.Fatalf("lease ships malformed cache entry %+v", q)
				}
			}
		}
	})
}
