package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one structured trace record. Every event carries the kind
// (Ev) and a timestamp relative to tracer start (T, seconds); the
// remaining fields are kind-specific and omitted when zero, so the
// JSONL stream stays compact. The event taxonomy (which kinds set which
// fields) is documented in DESIGN.md "Observability".
type Event struct {
	T      float64 `json:"t"`                // seconds since tracer start
	Ev     string  `json:"ev"`               // event kind ("path_end", "sat_query", ...)
	Path   int     `json:"path,omitempty"`   // path/exec index
	DurUS  int64   `json:"dur_us,omitempty"` // duration, microseconds
	N      int64   `json:"n,omitempty"`      // kind-specific magnitude (instrs, execs, flips, ...)
	N2     int64   `json:"n2,omitempty"`     // kind-specific secondary magnitude
	Result string  `json:"result,omitempty"` // "sat" | "unsat" | "unknown" | exit status ...
	Class  string  `json:"class,omitempty"`  // cache-hit class, stop reason, ...
	PC     uint32  `json:"pc,omitempty"`     // guest PC (findings)
	Err    string  `json:"err,omitempty"`    // finding / error text
}

// Event kinds emitted by the engines. Consumers should tolerate unknown
// kinds: the taxonomy grows with the system.
const (
	EvPathStart  = "path_start"  // Path
	EvPathEnd    = "path_end"    // Path, DurUS, N=instrs, Result=status
	EvSatQuery   = "sat_query"   // DurUS, N=#conds, Result
	EvCacheHit   = "cache_hit"   // Class: "exact" | "eval" | "subsume"
	EvFuzzBatch  = "fuzz_batch"  // DurUS, N=execs so far, N2=corpus size
	EvEscalation = "escalation"  // Path=escalation index, N=flips attempted, N2=injected
	EvFlipSolved = "flip_solved" // N=flip site index
	EvFinding    = "finding"     // Path, PC, Err
	EvRunEnd     = "run_end"     // DurUS, Class=stop reason
)

// Tracer writes events as one JSON object per line. Emit is safe for
// concurrent use (one mutex around the buffered writer) and a no-op on
// a nil receiver, so the tracing-disabled fast path is a single nil
// test at the call site.
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	c      io.Closer // underlying file, when opened by OpenTrace
	enc    *json.Encoder
	start  time.Time
	events int64
}

// NewTracer wraps w in a tracer. The caller owns w; Close flushes but
// does not close it.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &Tracer{w: bw, enc: json.NewEncoder(bw), start: time.Now()}
}

// OpenTrace creates (truncates) the JSONL trace file at path.
func OpenTrace(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := NewTracer(f)
	t.c = f
	return t, nil
}

// Enabled reports whether events will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit appends one event to the stream. The event's T field is stamped
// by the tracer; callers never set it.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.T = time.Since(t.start).Seconds()
	_ = t.enc.Encode(&ev) // write errors surface at Close
	t.events++
	t.mu.Unlock()
}

// Events returns the number of events emitted so far.
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Close flushes the stream (and closes the underlying file when the
// tracer was created by OpenTrace). Safe on nil.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.w.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
		t.c = nil
	}
	return err
}

// ReadTrace decodes a full JSONL event stream: one JSON object per
// line, as Tracer writes it. It fails on the first malformed line: a
// blank line, anything but an object, data after the object, or an
// unknown field, so schema drift between producer and consumer is
// caught immediately (cmd/tracecheck and the round-trip tests are built
// on this). The events before the bad line are returned with the error.
func ReadTrace(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var evs []Event
	for line := 1; sc.Scan(); line++ {
		ev, err := decodeEvent(sc.Bytes())
		if err != nil {
			return evs, fmt.Errorf("obs: trace line %d: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs, sc.Err()
}

// decodeEvent decodes one trace line, which must hold exactly one JSON
// object.
func decodeEvent(line []byte) (Event, error) {
	var ev Event
	if b := bytes.TrimSpace(line); len(b) == 0 || b[0] != '{' {
		return ev, errors.New("not a JSON object")
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ev); err != nil {
		return ev, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return ev, errors.New("data after the event")
	}
	return ev, nil
}
