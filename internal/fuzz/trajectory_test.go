package fuzz

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"rvcte/internal/guest"
	"rvcte/internal/smt"
)

// tcpipSeed is one input of the TCP/IP guest: the netcard's 512-byte
// packet buffer followed by its little-endian 32-bit receive size.
func tcpipSeed(pkt []byte) []byte {
	in := make([]byte, 516)
	copy(in, pkt)
	binary.LittleEndian.PutUint32(in[512:], uint32(len(pkt)))
	return in
}

// tcpipSeeds are two well-formed 64-byte IPv4 packets, a UDP datagram to
// the DNS port and a TCP segment to the listening port 7, so that
// mutations start past the stack's header checks.
var tcpipSeeds = func() [][]byte {
	ip := func(proto byte) []byte {
		p := make([]byte, 64)
		p[0] = 0x45                           // IPv4, 20-byte header
		binary.BigEndian.PutUint16(p[2:], 64) // total length
		p[9] = proto
		return p
	}
	udp := ip(17)
	binary.BigEndian.PutUint16(udp[22:], 53) // destination port
	binary.BigEndian.PutUint16(udp[24:], 44) // UDP length
	udp[33] = 1                              // DNS: one question
	tcp := ip(6)
	binary.BigEndian.PutUint16(tcp[22:], 7) // destination port
	tcp[32] = 6 << 4                        // data offset: 24 bytes
	return [][]byte{tcpipSeed(udp), tcpipSeed(tcp)}
}()

// tcpipFuzzer builds a one-worker fuzzer over the buggy TCP/IP stack
// (every Table 2 bug present, 64-byte packets) seeded with tcpipSeeds.
func tcpipFuzzer(tb testing.TB, seed int64) *Fuzzer {
	tb.Helper()
	core, _, err := guest.NewCore(smt.NewBuilder(), guest.TCPIPProgram(0, 64))
	if err != nil {
		tb.Fatalf("build tcpip guest: %v", err)
	}
	return New(core, Options{Seed: seed, Workers: 1, Seeds: tcpipSeeds})
}

// trajectoryExecs is the length of the pinned one-worker campaign: long
// enough to find the stack's first overflow and grow a corpus of a few
// dozen entries.
const trajectoryExecs = 3000

// trajectoryHash hashes everything a one-worker campaign decides: the
// corpus in admission order (ID, input, new bits, coverage signature),
// the progress counters, and the findings with their discovery index.
func trajectoryHash(f *Fuzzer) string {
	h := sha256.New()
	for _, e := range f.Corpus() {
		fmt.Fprintf(h, "entry %d %x %d %016x\n", e.ID, e.Data, e.NewBits, e.Sig)
	}
	s := f.Stats()
	fmt.Fprintf(h, "stats %d %d %d %d %d\n", s.Execs, s.TotalInstr, s.Edges, s.Pruned, s.LastNewCover)
	for _, fd := range f.Findings() {
		fmt.Fprintf(h, "finding %v %#x %d %d %x\n", fd.Err.Kind, fd.Err.PC, fd.Exec, fd.Instrs, fd.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFuzzTrajectoryPinned pins a one-worker campaign on the buggy TCP/IP
// stack. The hash was recorded from the fuzzer that still merged coverage
// byte by byte through bucketize and a signature set; any drift in
// coverage accounting, admission, scheduling or concrete execution shows
// up here. It also checks that the incrementally kept edge count equals a
// rescan of the virgin map.
func TestFuzzTrajectoryPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 3000 executions of the TCP/IP guest")
	}
	f := tcpipFuzzer(t, 1)
	f.RunBatch(trajectoryExecs)
	const want = "c31a8bbfc2c92bff80bcfb38c1eb03c4e1bed56ab417623e1ffca7c2a61ff466"
	if got := trajectoryHash(f); got != want {
		t.Errorf("trajectory hash %s, want %s (stats %+v)", got, want, f.Stats())
	}
	rescan := 0
	for _, v := range f.virgin {
		if v != 0 {
			rescan++
		}
	}
	if s := f.Stats(); s.Edges != rescan {
		t.Errorf("Stats().Edges = %d, rescan of the virgin map counts %d", s.Edges, rescan)
	}
}

// BenchmarkFuzzStep measures one pick→mutate→clone→run→merge iteration
// on the buggy TCP/IP stack, after a warm-up that fills the shared block
// table. Besides execs/s it reports guest instr/s and edges/exec, the
// mean touched-list length: the number of edge-map slots the merge and
// the reset visit per execution. Run with -benchmem (make bench-fuzz).
func BenchmarkFuzzStep(b *testing.B) {
	f := tcpipFuzzer(b, 1)
	f.RunBatch(300)
	ws := f.ws[0]
	instr0 := f.Stats().TotalInstr
	touched := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.step(ws)
		touched += len(ws.touched)
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(float64(b.N)/sec, "execs/s")
	b.ReportMetric(float64(f.Stats().TotalInstr-instr0)/sec, "instr/s")
	b.ReportMetric(float64(touched)/float64(b.N), "edges/exec")
}
