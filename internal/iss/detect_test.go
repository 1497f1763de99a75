package iss

import (
	"strings"
	"testing"

	"rvcte/internal/smt"
)

func detTestCore() *Core {
	return New(smt.NewBuilder(), Config{RamBase: 0x80000000, RamSize: 1 << 16})
}

// allKinds is the sorted kind table "all" expands to.
var allKinds = []string{KindHeapGuard, KindHeapUAF, KindIRQReentrancy, KindStackCanary}

func sameKinds(a, b []string) bool {
	return strings.Join(a, ",") == strings.Join(b, ",")
}

// TestRegisteredDetectorKinds: the four built-in kinds attach by name
// and report that name; "all" expands to them in sorted order; unknown
// names fail with every known kind in the message.
func TestRegisteredDetectorKinds(t *testing.T) {
	c := detTestCore()
	for _, want := range allKinds {
		if err := c.AttachDetectorSet([]string{want}); err != nil {
			t.Fatalf("attach %q: %v", want, err)
		}
		if got := c.DetectorKinds(); !sameKinds(got, []string{want}) {
			t.Errorf("attach %q: kinds = %v", want, got)
		}
	}
	if err := CheckDetectors(append([]string{"all"}, allKinds...)); err != nil {
		t.Errorf("CheckDetectors(known kinds): %v", err)
	}
	for _, bad := range [][]string{{"bogus"}, {KindHeapUAF, "bogus"}} {
		err := CheckDetectors(bad)
		if err == nil {
			t.Errorf("CheckDetectors(%v) must fail", bad)
			continue
		}
		for _, k := range allKinds {
			if !strings.Contains(err.Error(), k) {
				t.Errorf("error should list the known kind %q: %v", k, err)
			}
		}
	}
}

// TestAttachDetectorSet pins the attachment contract used by
// cte.NewSession and the campaign runner: nil keeps the current set, a
// name list replaces it (a name listed twice stays twice), "all"
// expands to every kind in sorted order, and a bad name leaves the set
// untouched.
func TestAttachDetectorSet(t *testing.T) {
	c := detTestCore()
	if got := c.DetectorKinds(); !sameKinds(got, []string{KindHeapGuard}) {
		t.Fatalf("stock set = %v, want [%s]", got, KindHeapGuard)
	}
	if err := c.AttachDetectorSet(nil); err != nil {
		t.Fatal(err)
	}
	if got := c.DetectorKinds(); !sameKinds(got, []string{KindHeapGuard}) {
		t.Fatalf("nil must keep the set, got %v", got)
	}
	want := []string{KindHeapUAF, KindStackCanary, KindHeapUAF}
	if err := c.AttachDetectorSet(want); err != nil {
		t.Fatal(err)
	}
	if got := c.DetectorKinds(); !sameKinds(got, want) {
		t.Fatalf("explicit list not honored: %v", got)
	}
	if err := c.AttachDetectorSet([]string{KindHeapGuard, "no-such-detector"}); err == nil {
		t.Fatal("bad name must fail")
	}
	if got := c.DetectorKinds(); !sameKinds(got, want) {
		t.Fatalf("failed attach must not change the set: %v", got)
	}
	if err := c.AttachDetectorSet([]string{"all"}); err != nil {
		t.Fatal(err)
	}
	if got := c.DetectorKinds(); !sameKinds(got, allKinds) {
		t.Fatalf(`"all" = %v, want %v`, got, allKinds)
	}
	if err := c.AttachDetectorSet([]string{}); err != nil {
		t.Fatal(err)
	}
	if got := c.DetectorKinds(); len(got) != 0 {
		t.Fatalf("empty list must detach every kind, got %v", got)
	}
}

// seedDetectorState gives every per-path detector state one entry: a
// quarantined block, an armed canary and an active IRQ cause.
func seedDetectorState(t *testing.T, c *Core) {
	t.Helper()
	if err := c.detectUnprotect(0x80000100, 0x100, 2); err != nil {
		t.Fatal(err)
	}
	c.armCanary(0x80001000, 32)
	if err := c.detectTrap(7); err != nil {
		t.Fatal(err)
	}
	if len(c.freed) != 1 || len(c.armed) != 1 || len(c.irqActive) != 1 {
		t.Fatalf("state not seeded: freed %v armed %v active %v", c.freed, c.armed, c.irqActive)
	}
}

// TestDetectorKindsSurviveClone: a clone has the parent's kinds in the
// same order and copies of its detector state.
func TestDetectorKindsSurviveClone(t *testing.T) {
	c := detTestCore()
	if err := c.AttachDetectorSet([]string{KindStackCanary, "all"}); err != nil {
		t.Fatal(err)
	}
	seedDetectorState(t, c)
	n := c.Clone()
	if got, want := n.DetectorKinds(), c.DetectorKinds(); !sameKinds(got, want) {
		t.Fatalf("clone kinds %v != parent %v", got, want)
	}
	if &n.freed[0] == &c.freed[0] || &n.armed[0] == &c.armed[0] || &n.irqActive[0] == &c.irqActive[0] {
		t.Error("detector state shared between clone and parent")
	}
}

// TestDetectorCloneIsolation: UAF quarantines, armed canaries and active
// IRQ causes are per-path state; changing one core's state after a
// clone must not leak into the other, in either direction.
func TestDetectorCloneIsolation(t *testing.T) {
	for _, mutateParent := range []bool{true, false} {
		c := detTestCore()
		if err := c.AttachDetectorSet([]string{"all"}); err != nil {
			t.Fatal(err)
		}
		seedDetectorState(t, c)
		n := c.Clone()
		mut, kept := c, n
		if !mutateParent {
			mut, kept = n, c
		}
		mut.detectProtect(0x80000180, 0x10) // reallocates the quarantined block
		mut.disarmCanary(0x80001000)
		mut.detectMRet()
		if len(mut.freed) != 0 || len(mut.armed) != 0 || len(mut.irqActive) != 0 {
			t.Fatalf("events did not clear the state: freed %v armed %v active %v", mut.freed, mut.armed, mut.irqActive)
		}
		if len(kept.freed) != 1 || kept.freed[0] != (addrRange{0x80000100, 0x80000200}) {
			t.Errorf("mutateParent=%v: quarantine shared: %+v", mutateParent, kept.freed)
		}
		if len(kept.armed) != 1 || kept.armed[0] != (addrRange{0x80001000, 0x80001020}) {
			t.Errorf("mutateParent=%v: armed canaries shared: %+v", mutateParent, kept.armed)
		}
		if len(kept.irqActive) != 1 || kept.irqActive[0] != 7 {
			t.Errorf("mutateParent=%v: active IRQ causes shared: %+v", mutateParent, kept.irqActive)
		}
	}
}

// TestDetectorCheckOrder: the attach order decides which kind an access
// reports when it hits two checks: a write inside both a guard zone and
// a quarantined range.
func TestDetectorCheckOrder(t *testing.T) {
	for _, tc := range []struct {
		set  []string
		want ErrKind
	}{
		{[]string{KindHeapGuard, KindHeapUAF}, ErrProtectedWrite},
		{[]string{KindHeapUAF, KindHeapGuard}, ErrUseAfterFree},
	} {
		c := detTestCore()
		if err := c.AttachDetectorSet(tc.set); err != nil {
			t.Fatal(err)
		}
		c.zones = append(c.zones, Zone{Start: 0x80000f00, Size: 0x100, Block: 0x80001000})
		if err := c.detectUnprotect(0x80000e00, 0x200, 2); err != nil {
			t.Fatal(err)
		}
		if !c.checkAccess(0x80000f80, 4, true) {
			t.Fatalf("%v: access not flagged", tc.set)
		}
		if c.Err.Kind != tc.want {
			t.Errorf("%v: reported %v, want %v", tc.set, c.Err.Kind, tc.want)
		}
	}
}

// TestDetectorsCloneAllocFree: with empty detector state, attaching
// every kind adds no allocation to Clone (the kind list is shared, not
// copied).
func TestDetectorsCloneAllocFree(t *testing.T) {
	allocs := func(names []string) float64 {
		c := detTestCore()
		if err := c.AttachDetectorSet(names); err != nil {
			t.Fatal(err)
		}
		c.Freeze()
		return testing.AllocsPerRun(50, func() { c.Clone() })
	}
	none, all := allocs([]string{}), allocs([]string{"all"})
	if all != none {
		t.Errorf("Clone allocations: %v with every detector, %v with none", all, none)
	}
}

// TestEdgeBanks pins the protocol-state bank rounding: next power of
// two, minimum one bank.
func TestEdgeBanks(t *testing.T) {
	for _, tc := range []struct{ states, banks int }{
		{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		if got := EdgeBanks(tc.states); got != tc.banks {
			t.Errorf("EdgeBanks(%d) = %d want %d", tc.states, got, tc.banks)
		}
	}
}
