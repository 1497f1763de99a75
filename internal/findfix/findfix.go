// Package findfix drives the paper's find-fix-rerun workflow (§4.2.3):
// run until the first error, classify it as a seeded bug, enable that
// bug's fix and re-run, until a run ends without a finding. Each stage
// yields one Table 2 row; Local runs a stage in-process, cmd/cte's
// campaign client runs one as a campaign.
package findfix

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"rvcte/internal/cte"
	"rvcte/internal/guest"
	"rvcte/internal/smt"
)

// Row is one Table 2 row: the outcome of one stage, which ran with the
// fixed-bug mask Fixed (bit i = bug i+1). Kind, PC and Func locate the
// stage's first finding (Kind is empty for a clean stage) and Bug is
// the seeded bug it classifies to (0 = unclassified).
type Row struct {
	Stage, Bug     int
	Fixed          uint
	Kind, Func     string
	PC             uint32
	Wall, STime    time.Duration // time and stime (solver time) columns
	Paths, Queries int
	Execs, Instr   uint64 // Execs counts hybrid concrete executions
	Stopped        string // why the stage's run ended
}

// Clean reports whether the stage ended without a finding.
func (r Row) Clean() bool { return r.Kind == "" }

// Stage runs stage i of a find-fix campaign with the bugs in fixed
// patched and reports its first finding, if any. Run fills Row.Stage
// and Row.Fixed.
type Stage func(i int, fixed uint) (Row, error)

// Run drives the find-fix-rerun loop from the fixed-bug mask fixed:
// each stage runs with every bug found so far patched, and the first
// clean stage ends the loop as the last row returned. It fails on a
// stage error, on a finding that classifies to no seeded bug, on a bug
// found again after its fix, and when no stage is clean within
// maxStages; the rows up to the failure come back with the error.
func Run(fixed uint, maxStages int, stage Stage) ([]Row, error) {
	var rows []Row
	for i := 0; i < maxStages; i++ {
		r, err := stage(i, fixed)
		if err != nil {
			return rows, fmt.Errorf("stage %d: %w", i, err)
		}
		r.Stage, r.Fixed = i, fixed
		rows = append(rows, r)
		switch {
		case r.Clean():
			return rows, nil
		case r.Bug <= 0:
			return rows, fmt.Errorf("stage %d: %s at %#x in %s is not a seeded bug", i, r.Kind, r.PC, r.Func)
		case fixed&(1<<(r.Bug-1)) != 0:
			return rows, fmt.Errorf("stage %d: bug %d found again after its fix", i, r.Bug)
		}
		fixed |= 1 << (r.Bug - 1)
	}
	return rows, fmt.Errorf("no clean stage within %d stages", maxStages)
}

// Local returns the in-process stage for target t: stage i builds t
// with its fixed bugs on a fresh Builder, runs one cte.Session with
// cfg(b, i) and the build's Protocol, and classifies the first finding
// by t's program (the guest.Classify rule set).
func Local(t Target, cfg func(b *smt.Builder, i int) cte.Config) Stage {
	return func(i int, fixed uint) (Row, error) {
		b := smt.NewBuilder()
		g, err := t.WithFixed(fixed).Build(b)
		if err != nil {
			return Row{}, err
		}
		c := cfg(b, i)
		c.Protocol = g.Proto
		start := time.Now()
		rep := cte.NewSession(g.Core, c).Run(context.Background())
		if strings.HasPrefix(rep.Stopped, "config: ") {
			return Row{}, errors.New(rep.Stopped)
		}
		r := Row{
			Wall: time.Since(start), STime: rep.SolverTime,
			Paths: rep.Paths, Queries: rep.Queries, Instr: rep.TotalInstr,
			Stopped: rep.Stopped,
		}
		if rep.Fuzz != nil {
			r.Execs = rep.Fuzz.Execs
		}
		if len(rep.Findings) > 0 {
			e := rep.Findings[0].Err
			r.Kind, r.PC, r.Func = e.Kind.String(), e.PC, guest.LocateFunc(g.ELF, e.PC)
			r.Bug = guest.Classify(t.Prog, g.ELF, e.Kind, e.PC, fixed)
		}
		return r, nil
	}
}

// descriptions holds the Table 2 description of each seeded tcpip bug.
var descriptions = map[int]string{
	1: "malformed IP header length -> memmove with size close to UINT_MAX",
	2: "buffer overflow (read) in the DNS/NBNS packet parser",
	3: "buffer overflow (write) in the DNS reply generator",
	4: "buffer overflow (read) during TCP options checking",
	5: "NBNS length overflow: large reply filled beyond a smaller input",
	6: "NBNS reply allocation too small for the complete reply",
}

// Print writes rows as Table 2: a header, one line per bug and the
// closing clean stage with its stop reason.
func Print(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-5s %9s %9s %8s %9s %12s  %s\n",
		"Error", "time(s)", "stime(s)", "#paths", "#queries", "#instr", "description")
	for _, r := range rows {
		label, desc := strconv.Itoa(r.Bug), descriptions[r.Bug]
		if r.Clean() {
			label, desc = "clean", "no finding ("+r.Stopped+")"
		}
		fmt.Fprintf(w, "%-5s %9.2f %9.2f %8d %9d %12d  %s\n",
			label, r.Wall.Seconds(), r.STime.Seconds(), r.Paths, r.Queries, r.Instr, desc)
	}
}
