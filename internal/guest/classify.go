package guest

import (
	"slices"
	"strings"

	"rvcte/internal/iss"
	"rvcte/internal/relf"
)

// LocateFunc returns the name of the function containing pc: the nearest
// function-level symbol at or below pc (compiler-internal ".L" labels are
// skipped).
func LocateFunc(elf *relf.File, pc uint32) string {
	best := ""
	var bestAddr uint32
	for name, addr := range elf.Symbols {
		if strings.HasPrefix(name, ".L") {
			continue
		}
		if addr <= pc && (best == "" || addr > bestAddr) {
			best, bestAddr = name, addr
		}
	}
	return best
}

// classRule maps one finding shape to a seeded bug index. Rules are
// matched in order, first match wins. A rule matches when the finding's
// error kind is in Kinds (empty = any kind) and the faulting PC lies in
// function Func (empty = any function). Bug is the seeded bug index the
// rule classifies to.
type classRule struct {
	Kinds []iss.ErrKind
	Func  string
	Bug   int
}

var (
	heapKinds = []iss.ErrKind{iss.ErrProtectedRead, iss.ErrProtectedWrite}
	heapRead  = []iss.ErrKind{iss.ErrProtectedRead}
	heapWrite = []iss.ErrKind{iss.ErrProtectedWrite}
)

// classifiers is the per-guest rule table, keyed by the short guest
// name used on the campaign wire ("tcpip", "tcpip-session", ...).
var classifiers = map[string][]classRule{
	// The mtcp single-packet stack (Table 2 numbering). The DNS and
	// NBNS handlers each host a read bug and a write bug, told apart by
	// the access kind: the blind label walk reads (bug 2), the reply
	// copy writes (bug 3); the trusted record length reads (bug 5), the
	// undersized reply buffer is written (bug 6). Unguarded rd16 reads
	// exist only in the DNS path (NBNS and TCP check sizes first).
	"tcpip": {
		{Kinds: heapKinds, Func: "memmove", Bug: 1},
		{Kinds: heapKinds, Func: "prvProcessIPPacket", Bug: 1},
		{Kinds: heapKinds, Func: "rd16", Bug: 2},
		{Kinds: heapRead, Func: "prvProcessDNS", Bug: 2},
		{Kinds: heapWrite, Func: "prvProcessDNS", Bug: 3},
		{Kinds: heapKinds, Func: "prvProcessTCP", Bug: 4},
		{Kinds: heapRead, Func: "prvProcessNBNS", Bug: 5},
		{Kinds: heapWrite, Func: "prvProcessNBNS", Bug: 6},
	},
	// The stateful session guest: each deep bug maps 1:1 onto a
	// detector kind, so the error kind alone classifies it.
	"tcpip-session": {
		// Bug 7 shows as a UAF (DATA stats touch after RST freed the
		// block) or as a double free (second RST on the dangling
		// pointer) — both are the missing NULL-out, both need 3 packets.
		{Kinds: []iss.ErrKind{iss.ErrUseAfterFree, iss.ErrDoubleFree}, Bug: 7},
		{Kinds: []iss.ErrKind{iss.ErrStackSmash}, Bug: 8},
		{Kinds: []iss.ErrKind{iss.ErrIRQReentrancy}, Bug: 9},
	},
}

// Classify maps a finding in the named guest to its seeded bug index
// (Table 2 numbering for tcpip; 7..9 for the session guest). Returns 0
// for guests without rules or findings matching no rule. No rule reads
// the fixed-bug mask (bit i = bug i+1 fixed): the label depends on the
// finding alone, so a fix that misses its bug shows as a repeat.
func Classify(guest string, elf *relf.File, kind iss.ErrKind, pc uint32, fixed uint) int {
	rules := classifiers[guest]
	if len(rules) == 0 {
		return 0
	}
	fn := ""
	if elf != nil {
		fn = LocateFunc(elf, pc)
	}
	for _, r := range rules {
		if (len(r.Kinds) == 0 || slices.Contains(r.Kinds, kind)) && (r.Func == "" || r.Func == fn) {
			return r.Bug
		}
	}
	return 0
}
