package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCTE compiles the cte binary once per test binary invocation.
var cteBin string

func TestMain(m *testing.M) {
	os.Exit(runTests(m))
}

// runTests builds the cte binary into a temporary directory, runs the
// tests and returns their exit code. The directory is removed before
// TestMain exits: os.Exit skips deferred calls.
func runTests(m *testing.M) int {
	dir, err := os.MkdirTemp("", "ctebin")
	if err != nil {
		return 1
	}
	defer os.RemoveAll(dir)
	cteBin = filepath.Join(dir, "cte")
	out, err := exec.Command("go", "build", "-o", cteBin, ".").CombinedOutput()
	if err != nil {
		os.Stderr.Write(out)
		return 1
	}
	return m.Run()
}

// TestExitCodes pins the contract stated in the package comment:
// 0 = explored clean, 1 = findings reported, 2 = usage/setup error.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string // required substring of stderr (usage errors)
		stdout string // required substring of stdout
	}{
		{
			name:   "finding exits 1",
			args:   []string{"-prog", "sensor", "-max-paths", "200"},
			want:   1,
			stdout: "FINDING",
		},
		{
			name:   "clean exploration exits 0",
			args:   []string{"-prog", "sensor-fixed", "-max-paths", "200"},
			want:   0,
			stdout: "no errors found",
		},
		{
			name:   "unknown program exits 2",
			args:   []string{"-prog", "no-such-guest"},
			want:   2,
			stderr: "unknown program",
		},
		{
			name:   "unknown strategy exits 2",
			args:   []string{"-prog", "sensor", "-strategy", "bogus"},
			want:   2,
			stderr: "unknown -strategy",
		},
		{
			name:   "no program exits 2",
			args:   []string{},
			want:   2,
			stderr: "need -prog",
		},
		{
			name:   "bad fix list exits 2",
			args:   []string{"-prog", "tcpip", "-fix", "7"},
			want:   2,
			stderr: "bad -fix entry",
		},
		{
			name:   "unknown detector exits 2 before the ELF is read",
			args:   []string{"-detectors", "bogus", "/no/such/file.elf"},
			want:   2,
			stderr: "unknown detector",
		},
		{
			name: "missing ELF file exits 2",
			args: []string{"/no/such/file.elf"},
			want: 2,
		},
		{
			name:   "fuzz finding exits 1",
			args:   []string{"-prog", "tcpip", "-fuzz", "-fuzz-time", "120s", "-seed", "1"},
			want:   1,
			stdout: "FINDING",
		},
		{
			name:   "json finding exits 1",
			args:   []string{"-prog", "sensor", "-max-paths", "200", "-json"},
			want:   1,
			stdout: `"findings"`,
		},
		{
			name:   "bmc finding exits 1",
			args:   []string{"-prog", "storm-s", "-bmc"},
			want:   1,
			stdout: "FINDING",
		},
		{
			name:   "bmc clean exits 0",
			args:   []string{"-prog", "counter-s", "-bmc"},
			want:   0,
			stdout: "no errors found",
		},
		{
			name:   "bmc json carries the bmc section",
			args:   []string{"-prog", "storm-s", "-bmc", "-json"},
			want:   1,
			stdout: `"bmc"`,
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
			if code != tc.want {
				t.Errorf("exit code %d want %d\nstdout: %s\nstderr: %s", code, tc.want, sb.String(), eb.String())
			}
			if tc.stderr != "" && !strings.Contains(eb.String(), tc.stderr) {
				t.Errorf("stderr %q does not contain %q", eb.String(), tc.stderr)
			}
			if tc.stdout != "" && !strings.Contains(sb.String(), tc.stdout) {
				t.Errorf("stdout %q does not contain %q", sb.String(), tc.stdout)
			}
		})
	}
}

// TestCacheFilePerTarget: the -cache-dir file name covers every target
// parameter, so runs of two different guests never share a cache file.
func TestCacheFilePerTarget(t *testing.T) {
	dir := t.TempDir()
	for _, caps := range []string{"16", "24"} {
		cmd := exec.Command(cteBin, "-prog", "tcpip-session", "-pkts", "1", "-pkt-caps", caps,
			"-max-paths", "3", "-j", "1", "-cache-dir", dir)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("-pkt-caps %s: %v\n%s", caps, err, out)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.qcache"))
	if err != nil || len(files) != 2 {
		t.Fatalf("cache files %v (err %v), want one per target", files, err)
	}
}
