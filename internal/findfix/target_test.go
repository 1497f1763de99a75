package findfix

import (
	"strings"
	"testing"
)

// TestTargetCheck: Check rejects what Build would, without compiling,
// with the messages cmd/cte and the coordinator report.
func TestTargetCheck(t *testing.T) {
	for _, tc := range []struct {
		target Target
		err    string
	}{
		{Target{Prog: "no-such-guest"}, `unknown program "no-such-guest"`},
		{Target{Prog: "tcpip", Fix: "7"}, `bad -fix entry "7"`},
		{Target{Prog: "storm-s", Detectors: []string{"bogus"}}, `unknown detector "bogus"`},
		{Target{Prog: "tcpip-session", Fix: "7,9", Detectors: []string{"all"}}, ""},
	} {
		err := tc.target.Check()
		if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: err %v, want %q", tc.target, err, tc.err)
		}
	}
}

func TestTargetWithFixed(t *testing.T) {
	for _, tc := range []struct {
		fixed uint
		fix   string
	}{{0, ""}, {0b100101, "1,3,6"}, {0b101 << 6, "7,9"}} {
		if got := (Target{Prog: "tcpip", Fix: "2"}).WithFixed(tc.fixed).Fix; got != tc.fix {
			t.Errorf("WithFixed(%#b).Fix = %q, want %q", tc.fixed, got, tc.fix)
		}
	}
}
