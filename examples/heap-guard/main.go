// heap-guard demonstrates the paper's Fig. 5 heap-overflow detection:
// pvPortMalloc/vPortFree wrappers surround every allocation with
// protected zones that the VP monitors on every load and store. Three
// buggy programs are executed: an off-by-one write, an out-of-bounds
// write driven by a symbolic index (found by exploration), and a double
// free, plus an in-bounds program that must stay clean. Any other
// outcome exits nonzero.
//
// Run with: go run ./examples/heap-guard
package main

import (
	"context"
	"fmt"
	"log"

	"rvcte/internal/cte"
	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

const wrappers = `
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
`

// run executes one concrete program and exits nonzero unless it fails
// with the want kind (ErrNone: it must exit without an error).
func run(name, src string, want iss.ErrKind) {
	b := smt.NewBuilder()
	core, _, err := guest.NewCore(b, guest.Program{
		Name:    name,
		Sources: []guest.Source{guest.C("main.c", wrappers+src)},
	})
	if err != nil {
		log.Fatal(err)
	}
	core.Run(0)
	if core.Err != nil {
		fmt.Printf("%-18s CAUGHT: %v\n", name+":", core.Err)
		if core.Err.Kind != want {
			log.Fatalf("%s: want %v", name, want)
		}
		return
	}
	fmt.Printf("%-18s completed without error (exit %d)\n", name+":", core.ExitCode)
	if want != iss.ErrNone || !core.Exited {
		log.Fatalf("%s: want %v", name, want)
	}
}

func main() {
	fmt.Println("== concrete off-by-one write ==")
	run("off-by-one", `
int main(void) {
    unsigned char *buf = (unsigned char *)guarded_malloc(16);
    int i;
    for (i = 0; i <= 16; i++) buf[i] = (unsigned char)i;  /* <= is the bug */
    guarded_free(buf);
    return 0;
}`, iss.ErrProtectedWrite)

	fmt.Println("\n== double free ==")
	run("double-free", `
int main(void) {
    void *p = guarded_malloc(32);
    guarded_free(p);
    guarded_free(p);
    return 0;
}`, iss.ErrDoubleFree)

	fmt.Println("\n== in-bounds program stays clean ==")
	run("clean", `
int main(void) {
    unsigned char *buf = (unsigned char *)guarded_malloc(16);
    int i;
    for (i = 0; i < 16; i++) buf[i] = (unsigned char)i;
    unsigned int sum = 0;
    for (i = 0; i < 16; i++) sum += buf[i];
    guarded_free(buf);
    return (int)sum;
}`, iss.ErrNone)

	fmt.Println("\n== symbolic index: exploration finds the overflowing input ==")
	b := smt.NewBuilder()
	core, _, err := guest.NewCore(b, guest.Program{
		Name: "symbolic-index",
		Sources: []guest.Source{guest.C("main.c", wrappers+`
unsigned char idx;
int main(void) {
    CTE_make_symbolic(&idx, 1, "idx");
    unsigned char *buf = (unsigned char *)guarded_malloc(16);
    /* missing bounds check: idx may be up to 255 */
    buf[idx] = 7;
    guarded_free(buf);
    return 0;
}`)},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Enable the optional address-concretization TCs (§2.2) so the
	// symbolic index is steered toward out-of-bounds values.
	core.AddressTCs = true
	rep := cte.NewSession(core, cte.Config{
		Budget:      cte.Budget{MaxPaths: 50},
		StopOnError: true,
	}).Run(context.Background())
	if len(rep.Findings) == 0 {
		log.Fatalf("no overflow found after %d paths", rep.Paths)
	}
	f := rep.Findings[0]
	fmt.Printf("CAUGHT: %v with input idx=%d (after %d paths)\n",
		f.Err, b.Value(f.Input, "idx[0]"), rep.Paths)
	if f.Err.Kind != iss.ErrProtectedWrite {
		log.Fatalf("symbolic-index: want %v", iss.ErrProtectedWrite)
	}
}
