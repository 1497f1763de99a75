// Quickstart: the paper's running example (Fig. 2-4) end to end.
//
// A sensor peripheral — written as a software model using the
// CTE-interface — periodically generates symbolic data; the application
// software configures it over memory-mapped I/O with a symbolic filter
// value and asserts that the delivered data stays in the sensor range.
// Concolic exploration finds the seeded off-by-one in the peripheral's
// filter post-processing: with filter >= MIN the filter is rewritten to
// MIN+1, so a minimal data value underflows "data -= filter" and the
// assertion fails (the I3 input of Fig. 4).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"rvcte/internal/cte"
	"rvcte/internal/findfix"
	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

func main() {
	fmt.Println("== building the sensor system (app + sensor & PLIC SW models) ==")
	b := smt.NewBuilder()
	g, err := findfix.Target{Prog: "sensor"}.Build(b)
	if err != nil {
		log.Fatal(err)
	}
	if addr, ok := g.ELF.Symbol("sensor_transport"); ok {
		fmt.Printf("sensor transport function bound from ELF symbol: %#x\n", addr)
	}

	fmt.Println("\n== path I0: empty input (all symbolic values default to zero) ==")
	first := g.Core.Clone()
	first.Run(0)
	fmt.Printf("result: %v after %d instructions\n", first.Err, first.InstrCount)
	fmt.Printf("trace conditions emitted: %d\n", len(first.Trace))

	fmt.Println("\n== concolic exploration ==")
	sess := cte.NewSession(g.Core, cte.Config{
		Budget:      cte.Budget{MaxPaths: 64},
		StopOnError: true,
	})
	sess.OnPath = func(path int, c *iss.Core) {
		status := "completed"
		if c.Err != nil {
			status = c.Err.Kind.String()
		}
		fmt.Printf("  path %d: input %s -> %s\n", path, cte.DescribeInput(b, c.Input), status)
	}
	rep := sess.Run(context.Background())

	if len(rep.Findings) == 0 {
		log.Fatal("expected to find the sensor bug")
	}
	f := rep.Findings[0]
	fv := b.Value(f.Input, "f[0]")
	dv := b.Value(f.Input, "d[0]")
	fmt.Printf("\nBUG FOUND: %v\n", f.Err)
	fmt.Printf("violating input: filter=%d data=%d\n", fv, dv)
	fmt.Printf("explanation: filter >= 16 triggers the peripheral's buggy rewrite to 17;\n")
	fmt.Printf("data=%d then underflows (data - 17 wraps around), violating data <= 64.\n", dv)
	fmt.Printf("\nstats: %d paths, %d solver queries, %.3fs solver time\n",
		rep.Paths, rep.Queries, rep.SolverTime.Seconds())

	fmt.Println("\n== after fixing the peripheral (minus one instead of plus one) ==")
	b2 := smt.NewBuilder()
	fixed, err := findfix.Target{Prog: "sensor-fixed"}.Build(b2)
	if err != nil {
		log.Fatal(err)
	}
	rep2 := cte.NewSession(fixed.Core, cte.Config{
		Budget: cte.Budget{MaxPaths: 200},
	}).Run(context.Background())
	fmt.Printf("exploration: %d paths, findings: %d, exhausted: %v\n",
		rep2.Paths, len(rep2.Findings), rep2.Exhausted)
}
