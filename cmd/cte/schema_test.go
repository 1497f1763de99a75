package main

import (
	"encoding/json"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestJSONReportSchemaStable pins the -json wire contract after the
// Config restructure: downstream tooling (campaign dashboards, the
// EXPERIMENTS.md tables) parses these exact keys, so adding a field is
// fine only through the golden lists below, and renaming one is a
// breaking change that must be called out in README's migration notes.
func TestJSONReportSchemaStable(t *testing.T) {
	t.Parallel()
	out, err := exec.Command(cteBin,
		"-prog", "tcpip-session", "-pkts", "3", "-detectors", "all",
		"-max-paths", "5", "-stop-on-error=false", "-json").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() > 1 {
			t.Fatalf("run: %v (%s)", err, out)
		}
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(out, &top); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}

	want := []string{
		"cache", "covered_pcs", "detectors", "exhausted", "findings",
		"mode", "obs", "paths", "per_worker", "program", "protocol",
		"pruned", "queries", "sat_tcs", "solver_time_sec", "stopped",
		"total_instr", "unknown_tcs", "unsat_tcs", "wall_time_sec",
		"workers",
	}
	var got []string
	for k := range top {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("top-level -json keys changed:\n got  %v\n want %v", got, want)
	}

	var proto map[string]json.RawMessage
	if err := json.Unmarshal(top["protocol"], &proto); err != nil {
		t.Fatalf("protocol section: %v", err)
	}
	wantProto := []string{"packets", "pkt_caps", "state_addr", "states"}
	var gotProto []string
	for k := range proto {
		gotProto = append(gotProto, k)
	}
	sort.Strings(gotProto)
	if !reflect.DeepEqual(gotProto, wantProto) {
		t.Errorf("protocol keys changed:\n got  %v\n want %v", gotProto, wantProto)
	}

	var dets []string
	if err := json.Unmarshal(top["detectors"], &dets); err != nil {
		t.Fatalf("detectors section: %v", err)
	}
	if len(dets) < 4 || !strings.Contains(strings.Join(dets, ","), "heap-uaf") {
		t.Errorf(`"all" must expand in the report: %v`, dets)
	}
}
