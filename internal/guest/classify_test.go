package guest

import (
	"testing"

	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

// TestClassifyTCPIPFinding pins the finding→bug mapping for all six
// seeded mtcp overflow sites (Table 2 numbering), including the
// kind-based splits inside prvProcessDNS and prvProcessNBNS, which do
// not depend on the fixed-bug mask.
func TestClassifyTCPIPFinding(t *testing.T) {
	_, elf, err := NewCore(smt.NewBuilder(), TCPIPProgram(0, 64))
	if err != nil {
		t.Fatal(err)
	}
	sym := func(name string) uint32 {
		addr, ok := elf.Symbols[name]
		if !ok {
			t.Fatalf("symbol %q not in tcpip image", name)
		}
		return addr
	}

	cases := []struct {
		name  string
		fn    string
		kind  iss.ErrKind
		fixed uint
		want  int
	}{
		{"bug1 via memmove", "memmove", iss.ErrProtectedRead, 0, 1},
		{"bug1 via prvProcessIPPacket", "prvProcessIPPacket", iss.ErrProtectedRead, 0, 1},
		{"bug2 via rd16", "rd16", iss.ErrProtectedRead, 0, 2},
		{"bug2 in prvProcessDNS", "prvProcessDNS", iss.ErrProtectedRead, 0, 2},
		{"bug3 in prvProcessDNS once bug2 fixed", "prvProcessDNS", iss.ErrProtectedWrite, 1 << 1, 3},
		{"bug3 DNS write while bug2 unfixed", "prvProcessDNS", iss.ErrProtectedWrite, 0, 3},
		{"bug2 DNS read after bug2 fixed", "prvProcessDNS", iss.ErrProtectedRead, 0b10, 2},
		{"bug4 in prvProcessTCP", "prvProcessTCP", iss.ErrProtectedRead, 0, 4},
		{"bug5 NBNS read", "prvProcessNBNS", iss.ErrProtectedRead, 0, 5},
		{"bug6 NBNS write", "prvProcessNBNS", iss.ErrProtectedWrite, 0, 6},
		// With every other bug patched the mapping must not shift.
		{"bug1 with others fixed", "memmove", iss.ErrProtectedRead, 0b111110, 1},
		{"bug4 with others fixed", "prvProcessTCP", iss.ErrProtectedRead, 0b101011, 4},
		{"bug6 with others fixed", "prvProcessNBNS", iss.ErrProtectedWrite, 0b011111, 6},
		// Non-overflow kinds and non-bug sites classify as 0.
		{"assertion is not a seeded bug", "prvProcessDNS", iss.ErrAssertFail, 0, 0},
		{"illegal load is not a seeded bug", "rd16", iss.ErrIllegalLoad, 0, 0},
		{"overflow outside the stack", "_start", iss.ErrProtectedWrite, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Classify("tcpip", elf, tc.kind, sym(tc.fn), tc.fixed)
			if got != tc.want {
				t.Errorf("Classify(tcpip, %s@%s, fixed=%06b) = %d, want %d",
					tc.kind, tc.fn, tc.fixed, got, tc.want)
			}
		})
	}
}
