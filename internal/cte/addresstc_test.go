package cte

import (
	"context"
	"testing"

	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

// symIndexSrc writes through a symbolic byte index into a 16-byte
// guarded heap block (the symbolic-index program of
// examples/heap-guard): idx up to 255 reaches the 512-byte guard zone
// behind the block, but the store's address is concretized, so only
// the address trace conditions let the solver pick such an idx.
const symIndexSrc = `
#define PROT_ZONE_SIZE 512

void *guarded_malloc(unsigned int want) {
    unsigned char *p = (unsigned char *)malloc(want + 2 * PROT_ZONE_SIZE);
    if (p == 0) return 0;
    void *addr = (void *)(p + PROT_ZONE_SIZE);
    CTE_register_protected_memory(addr, want, PROT_ZONE_SIZE);
    return addr;
}

void guarded_free(void *pv) {
    CTE_assert(pv != 0);
    CTE_free_protected_memory(pv);
    free((void *)((unsigned char *)pv - PROT_ZONE_SIZE));
}

unsigned char idx;
int main(void) {
    CTE_make_symbolic(&idx, 1, "idx");
    unsigned char *buf = (unsigned char *)guarded_malloc(16);
    buf[idx] = 7;
    guarded_free(buf);
    return 0;
}`

// TestAddressTCsFindSymbolicIndexOverflow: with Core.AddressTCs on, a
// 50-path stop-on-error session steers the symbolic index into the
// guard zone; with it off, the same run ends without a finding.
func TestAddressTCsFindSymbolicIndexOverflow(t *testing.T) {
	for _, on := range []bool{true, false} {
		b := smt.NewBuilder()
		core, _, err := guest.NewCore(b, guest.Program{
			Name:    "symbolic-index",
			Sources: []guest.Source{guest.C("main.c", symIndexSrc)},
		})
		if err != nil {
			t.Fatal(err)
		}
		core.AddressTCs = on
		rep := NewSession(core, Config{
			Budget:      Budget{MaxPaths: 50},
			StopOnError: true,
		}).Run(context.Background())
		if !on {
			if len(rep.Findings) != 0 {
				t.Errorf("AddressTCs off: unexpected finding %v", rep.Findings[0].Err)
			}
			continue
		}
		if len(rep.Findings) == 0 {
			t.Fatalf("AddressTCs on: no finding after %d paths", rep.Paths)
		}
		f := rep.Findings[0]
		if f.Err.Kind != iss.ErrProtectedWrite {
			t.Errorf("AddressTCs on: finding %v, want %v", f.Err, iss.ErrProtectedWrite)
		}
		if idx := b.Value(f.Input, "idx[0]"); idx < 16 {
			t.Errorf("AddressTCs on: finding input idx=%d is in bounds", idx)
		}
	}
}
