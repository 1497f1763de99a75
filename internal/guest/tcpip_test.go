package guest

import (
	"context"
	"fmt"
	"testing"

	"rvcte/internal/cte"
	"rvcte/internal/fuzz"
	"rvcte/internal/iss"
	"rvcte/internal/smt"
)

func isHeapOverflow(k iss.ErrKind) bool {
	return k == iss.ErrProtectedRead || k == iss.ErrProtectedWrite
}

// TestTCPIPBug1 reproduces Table 2 error 1: a malformed IP header length
// underflows the payload size and the normalizing memmove overruns the
// packet buffer. It must be the very first error found.
func TestTCPIPBug1(t *testing.T) {
	b := smt.NewBuilder()
	core, elf, err := NewCore(b, TCPIPProgram(0, 64))
	if err != nil {
		t.Fatal(err)
	}
	eng := cte.NewSession(core, cte.Config{StopOnError: true, Budget: cte.Budget{MaxPaths: 400}})
	rep := eng.Run(context.Background())
	if len(rep.Findings) == 0 {
		t.Fatalf("bug 1 not found: %v", rep)
	}
	f := rep.Findings[0]
	if !isHeapOverflow(f.Err.Kind) {
		t.Fatalf("expected a heap overflow, got %v", f.Err)
	}
	if bug := Classify("tcpip", elf, f.Err.Kind, f.Err.PC, 0); bug != 1 {
		t.Fatalf("first finding should be bug 1, classified as %d (%v in %s)",
			bug, f.Err, LocateFunc(elf, f.Err.PC))
	}
	if rep.Paths > 50 {
		t.Errorf("bug 1 should be shallow; took %d paths", rep.Paths)
	}
	t.Logf("bug1: %v after %d paths, %d queries (input %s)",
		f.Err, rep.Paths, rep.Queries, cte.DescribeInput(b, f.Input))
}

// TestTCPIPAllFixed: with every bug patched, exploration (bounded) finds
// nothing.
func TestTCPIPAllFixed(t *testing.T) {
	b := smt.NewBuilder()
	core, _, err := NewCore(b, TCPIPProgram(0b111111, 64))
	if err != nil {
		t.Fatal(err)
	}
	eng := cte.NewSession(core, cte.Config{Budget: cte.Budget{MaxPaths: 400}})
	rep := eng.Run(context.Background())
	if len(rep.Findings) != 0 {
		t.Fatalf("fixed stack must be clean, found %v", rep.Findings)
	}
	t.Logf("all-fixed sweep: %v", rep)
}

// TestTCPIPAllFixedDNSOverread replays a 40-byte packet on the fully
// patched stack: a UDP datagram to port 53 whose DNS payload is exactly
// the 12-byte header. FIX_BUG2 rejects payloads below 12 bytes, but the
// label loop reads p[12] before any bounds test, one byte past the
// packet buffer, which the guest's network task allocates with exactly
// N bytes. The heap guard checks only the concrete size, so exploration
// reaches this overread only when the solver happens to pick N=40.
// Repairing FIX_BUG2
// (ROADMAP.md, the symbolic-size heap guard item) makes this replay run
// clean and flips this test.
func TestTCPIPAllFixedDNSOverread(t *testing.T) {
	b := smt.NewBuilder()
	core, elf, err := NewCore(b, TCPIPProgram(0x3f, 64))
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]uint64{
		"N[0]":   40,                                   // N = 40, little-endian; N[1..3] stay zero
		"pkt[0]": 0x45, "pkt[2]": 0x00, "pkt[3]": 0x28, // IPv4, IHL 5, length 40
		"pkt[9]":  17,                    // UDP
		"pkt[22]": 0x00, "pkt[23]": 0x35, // destination port 53
		"pkt[24]": 0x00, "pkt[25]": 0x14, // UDP length 20: a 12-byte payload
		"pkt[32]": 0x20, "pkt[33]": 0x01,
	}
	in := smt.Assignment{}
	for name, v := range vals {
		x, err := b.DeclareVar(8, name)
		if err != nil {
			t.Fatal(err)
		}
		in[int(x.Val)] = v
	}
	core.Input = in
	core.Run(0)
	if core.Err == nil {
		t.Fatalf("replay ran clean (exit %d after %d instructions)", core.ExitCode, core.InstrCount)
	}
	if fn := LocateFunc(elf, core.Err.PC); core.Err.Kind != iss.ErrProtectedRead || fn != "prvProcessDNS" {
		t.Fatalf("replay: %v in %s, want a heap buffer overflow (read) in prvProcessDNS", core.Err, fn)
	}
	if core.InstrCount != 9410 {
		t.Errorf("replay hit the overread after %d instructions, want 9410", core.InstrCount)
	}
	if bug := Classify("tcpip", elf, core.Err.Kind, core.Err.PC, 0x3f); bug != 2 {
		t.Errorf("classified as bug %d, want 2", bug)
	}
}

// TestTCPIPSinglePath sanity-checks plain execution (no exploration):
// the zero packet is dropped by the driver's minimum-size check.
func TestTCPIPSinglePath(t *testing.T) {
	b := smt.NewBuilder()
	core, _, err := NewCore(b, TCPIPProgram(0, 64))
	if err != nil {
		t.Fatal(err)
	}
	core.Run(0)
	if core.Err != nil {
		t.Fatalf("single path error: %v", core.Err)
	}
	if !core.Exited {
		t.Fatal("must exit via the drop path")
	}
}

// TestTCPIPChecksumValidation: with IP header checksum validation
// enabled, exploration must construct packets whose one's-complement sum
// folds to 0xffff before any parsing happens — a significantly harder
// solver workload — and still find the first bug.
func TestTCPIPChecksumValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-heavy")
	}
	b := smt.NewBuilder()
	core, elf, err := NewCore(b, TCPIPChecksumProgram(0, 64))
	if err != nil {
		t.Fatal(err)
	}
	eng := cte.NewSession(core, cte.Config{StopOnError: true, Budget: cte.Budget{MaxPaths: 1500}})
	rep := eng.Run(context.Background())
	if len(rep.Findings) == 0 {
		t.Fatalf("bug 1 must be reachable through the checksum: %v", rep)
	}
	f := rep.Findings[0]
	if !isHeapOverflow(f.Err.Kind) {
		t.Fatalf("kind: %v", f.Err)
	}
	if bug := Classify("tcpip", elf, f.Err.Kind, f.Err.PC, 0); bug != 1 {
		t.Errorf("expected bug 1 first, got %d", bug)
	}
	// Verify the model really carries a valid checksum: fold the summed
	// base-header halfwords of the solved packet.
	sum := uint64(0)
	for i := uint64(0); i < 20; i += 2 {
		hi := b.Value(f.Input, fmt.Sprintf("pkt[%d]", i))
		lo := b.Value(f.Input, fmt.Sprintf("pkt[%d]", i+1))
		sum += hi<<8 | lo
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	if sum != 0xffff {
		t.Errorf("solved packet checksum folds to %#x, want 0xffff", sum)
	}
	t.Logf("checksum-valid overflow packet found after %d paths, %d queries, %.2fs solver",
		rep.Paths, rep.Queries, rep.SolverTime.Seconds())
}

// TestTCPIPPureFuzzBaseline documents the other end of the ablation: a
// pure coverage-guided fuzzer (no concolic assist) reaches at most the
// shallow length-field overflow by byte mutation — the format-gated
// deeper protocol handlers stay out of reach within many times the
// execution budget the hybrid needs for all six bugs.
func TestTCPIPPureFuzzBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("large execution count")
	}
	b := smt.NewBuilder()
	core, elf, err := NewCore(b, TCPIPProgram(0, 64))
	if err != nil {
		t.Fatal(err)
	}
	f := fuzz.New(core, fuzz.Options{Seed: 1, MaxInstrPerRun: 2_000_000})
	f.RunBatch(20_000)
	st := f.Stats()
	var bugs []int
	for _, fd := range f.Findings() {
		if bug := Classify("tcpip", elf, fd.Err.Kind, fd.Err.PC, 0); bug != 0 {
			bugs = append(bugs, bug)
		}
	}
	// The log line feeds EXPERIMENTS.md.
	t.Logf("pure fuzz: %d execs, %d corpus, %d edges, %d pruned, seeded bugs found: %v",
		st.Execs, st.CorpusSize, st.Edges, st.Pruned, bugs)
	if st.Execs != 20_000 {
		t.Errorf("execs %d want 20000", st.Execs)
	}
	if st.CorpusSize == 0 {
		t.Error("fuzzer built no corpus at all")
	}
}
