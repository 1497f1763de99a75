// tcpip-fuzz reproduces the paper's §4.2 evaluation workflow on the
// mini-RTOS TCP/IP stack: inject one packet with symbolic size and
// content through the network-card peripheral, run concolic testing
// until the first heap overflow, "fix" the bug (enable its patch), and
// re-run — until the stack survives a full bounded sweep. The
// internal/findfix driver runs the loop; one row is printed per
// discovered bug, mirroring Table 2, then the clean sweep's row.
//
// Run with: go run ./examples/tcpip-fuzz
package main

import (
	"fmt"
	"log"
	"os"

	"rvcte/internal/cte"
	"rvcte/internal/findfix"
	"rvcte/internal/smt"
)

func main() {
	fmt.Println("testing the TCP/IP stack: one symbolic packet (size N <= 64, symbolic content)")
	fmt.Println()
	rows, err := findfix.Run(0, 7, findfix.Local(findfix.Target{Prog: "tcpip", PktMax: 64},
		func(_ *smt.Builder, i int) cte.Config {
			if i == 6 {
				return cte.Config{Budget: cte.Budget{MaxPaths: 1000}} // the fully patched stack
			}
			return cte.Config{StopOnError: true, Budget: cte.Budget{MaxPaths: 10000}}
		}))
	findfix.Print(os.Stdout, rows)
	if err != nil {
		log.Fatal(err)
	}
	if len(rows) != 7 {
		log.Fatalf("stack explored clean after %d of six bugs", len(rows)-1)
	}
}
