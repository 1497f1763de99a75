package obs

import (
	"bytes"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to ReadTrace, seeded with the
// output of a real Tracer. ReadTrace must never panic, and a stream it
// accepts must round-trip: re-emitted through a Tracer and read back,
// it gives the same events (T aside, which the tracer stamps).
func FuzzReadTrace(f *testing.F) {
	var seed bytes.Buffer
	tr := NewTracer(&seed)
	for _, ev := range []Event{
		{Ev: EvPathStart, Path: 1},
		{Ev: EvPathEnd, Path: 1, DurUS: 12, N: 345, Result: "ok"},
		{Ev: EvSatQuery, DurUS: 3, N: 2, Result: "unsat"},
		{Ev: EvCacheHit, Class: "subsume"},
		{Ev: EvFuzzBatch, DurUS: 90, N: 500, N2: 7},
		{Ev: EvFinding, Path: 2, PC: 0x80000124, Err: "heap-guard: \"x\"\n"},
		{Ev: EvRunEnd, DurUS: 400, Class: "stop-on-error"},
	} {
		tr.Emit(ev)
	}
	if err := tr.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("{\"ev\":\"a\"}{\"ev\":\"b\"}\n"))
	f.Add([]byte("null\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		for _, ev := range evs {
			tr.Emit(ev)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-emitted stream rejected: %v", err)
		}
		if len(back) != len(evs) {
			t.Fatalf("%d events read back, %d emitted", len(back), len(evs))
		}
		for i := range evs {
			want := evs[i]
			want.T = back[i].T
			if back[i] != want {
				t.Fatalf("event %d = %+v, emitted %+v", i, back[i], want)
			}
		}
	})
}
