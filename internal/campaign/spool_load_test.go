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
// serves leases; it never panics. The seed corpus is a spool the
// coordinator wrote with a lease outstanding, plus the corrupt files.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		co, err := NewCoordinator(writeSpool(t, data), nil)
		if err != nil {
			return
		}
		for _, st := range co.List() {
			if _, err := co.Lease(st.Spec.ID, LeaseRequest{Worker: "w"}); err != nil {
				t.Fatal(err)
			}
		}
	})
}
