package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"testing"

	"rvcte/internal/campaign"
	"rvcte/internal/findfix"
)

// TestCampaignFlagValidation pins the mode matrix as subprocess runs:
// -serve, -connect, -submit and one-shot exploration are mutually
// exclusive, auxiliary flags require their mode, and every violation is
// a usage error — exit code 2 with a diagnostic on stderr.
func TestCampaignFlagValidation(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{
			name:   "serve and connect conflict",
			args:   []string{"-serve", ":0", "-connect", "localhost:1"},
			stderr: "mutually exclusive",
		},
		{
			name:   "serve and submit conflict",
			args:   []string{"-serve", ":0", "-submit", "localhost:1", "-prog", "tcpip"},
			stderr: "mutually exclusive",
		},
		{
			name:   "connect and submit conflict",
			args:   []string{"-connect", "localhost:1", "-submit", "localhost:1"},
			stderr: "mutually exclusive",
		},
		{
			name:   "serve rejects a program",
			args:   []string{"-serve", ":0", "-prog", "tcpip"},
			stderr: "take no program",
		},
		{
			name:   "connect rejects an ELF",
			args:   []string{"-connect", "localhost:1", "prog.elf"},
			stderr: "take no program",
		},
		{
			name:   "fuzz with serve conflicts",
			args:   []string{"-serve", ":0", "-fuzz"},
			stderr: "cannot be combined with -serve",
		},
		{
			name:   "fuzz with connect conflicts",
			args:   []string{"-connect", "localhost:1", "-fuzz"},
			stderr: "cannot be combined with -serve",
		},
		{
			name:   "submit requires a program",
			args:   []string{"-submit", "localhost:1"},
			stderr: "-submit requires -prog",
		},
		{
			name:   "submit rejects an ELF",
			args:   []string{"-submit", "localhost:1", "-prog", "tcpip", "prog.elf"},
			stderr: "cannot explore an ELF",
		},
		{
			name:   "spool requires serve",
			args:   []string{"-spool", "/tmp/x", "-prog", "sensor"},
			stderr: "-spool requires -serve",
		},
		{
			name:   "worker-id requires connect",
			args:   []string{"-worker-id", "w", "-prog", "sensor"},
			stderr: "-worker-id requires -connect",
		},
		{
			name:   "findfix requires submit",
			args:   []string{"-findfix", "-prog", "tcpip"},
			stderr: "-findfix requires -submit",
		},
		{
			name:   "findfix is tcpip-only",
			args:   []string{"-submit", "localhost:1", "-prog", "sensor", "-findfix"},
			stderr: "-findfix is the concolic find-fix-rerun workflow",
		},
		{
			name:   "bmc with fuzz conflicts",
			args:   []string{"-prog", "storm-s", "-bmc", "-fuzz"},
			stderr: "-bmc and -fuzz are mutually exclusive",
		},
		{
			name:   "bmc with serve conflicts",
			args:   []string{"-serve", ":0", "-bmc"},
			stderr: "cannot be combined with -serve, -connect or -submit",
		},
		{
			name:   "bmc with connect conflicts",
			args:   []string{"-connect", "localhost:1", "-bmc"},
			stderr: "cannot be combined with -serve, -connect or -submit",
		},
		{
			name:   "bmc with submit conflicts",
			args:   []string{"-submit", "localhost:1", "-prog", "storm-s", "-bmc"},
			stderr: "cannot be combined with -serve, -connect or -submit",
		},
		{
			name:   "k requires bmc",
			args:   []string{"-prog", "storm-s", "-k", "100"},
			stderr: "-k requires -bmc",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(cteBin, tc.args...)
			var sb, eb strings.Builder
			cmd.Stdout, cmd.Stderr = &sb, &eb
			err := cmd.Run()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("run: %v", err)
			}
			if code != 2 {
				t.Errorf("exit code %d want 2\nstdout: %s\nstderr: %s", code, sb.String(), eb.String())
			}
			if !strings.Contains(eb.String(), tc.stderr) {
				t.Errorf("stderr %q does not contain %q", eb.String(), tc.stderr)
			}
		})
	}

	// A submit against an unreachable coordinator is a setup error, not
	// a finding: exit 2.
	t.Run("submit to unreachable coordinator", func(t *testing.T) {
		t.Parallel()
		cmd := exec.Command(cteBin, "-submit", "127.0.0.1:1", "-prog", "storm-s")
		var eb strings.Builder
		cmd.Stderr = &eb
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("exit %v want 2 (stderr: %s)", err, eb.String())
		}
	})
}

// TestFindFixRejectsKindlessFinding: a streamed finding without a kind
// (only a faulty worker sends one) still ends its stage, so the client
// rejects it as unclassified (exit 2) instead of reporting a clean stage.
func TestFindFixRejectsKindlessFinding(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"spec":{"id":"c1","prog":"tcpip"},"state":"running"}`)
	})
	mux.HandleFunc("GET /campaigns/c1/findings", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"pc":4096,"msg":"no kind"}`)
	})
	mux.HandleFunc("GET /campaigns/c1", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"spec":{"id":"c1","prog":"tcpip"},"state":"done"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if code := runFindFix(context.Background(), campaign.NewClient(ts.URL), campaignOpts{target: findfix.Target{Prog: "tcpip"}}); code != 2 {
		t.Fatalf("exit %d want 2", code)
	}
}
