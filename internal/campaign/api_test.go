package campaign

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestHTTPStatusCodes pins the control plane's error contract: invalid
// specs are 422, malformed bodies 400, unknown campaigns 404 — and the
// obs diagnostics (/metrics) keep being served from the same mux.
func TestHTTPStatusCodes(t *testing.T) {
	co, _ := newTestCoordinator(t)
	ts := httptest.NewServer(NewServer(co, nil))
	defer ts.Close()

	req := func(method, path, body string) int {
		t.Helper()
		var rd *strings.Reader
		if body != "" {
			rd = strings.NewReader(body)
		} else {
			rd = strings.NewReader("")
		}
		r, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"unknown prog", "POST", "/campaigns", `{"prog":"no-such-program"}`, 422},
		{"unknown mode", "POST", "/campaigns", `{"prog":"storm-s","mode":"psychic"}`, 422},
		{"malformed body", "POST", "/campaigns", `{"prog":`, 400},
		{"status of unknown", "GET", "/campaigns/c999", "", 404},
		{"cancel of unknown", "DELETE", "/campaigns/c999", "", 404},
		{"findings of unknown", "GET", "/campaigns/c999/findings", "", 404},
		{"lease on unknown", "POST", "/campaigns/c999/lease", `{"worker":"w"}`, 404},
		{"result on unknown", "POST", "/campaigns/c999/results", `{"lease":"x"}`, 404},
		{"heartbeat on unknown", "POST", "/campaigns/c999/heartbeat", `{"lease":"x"}`, 404},
		{"metrics still served", "GET", "/metrics", "", 200},
	}
	for _, tc := range cases {
		if got := req(tc.method, tc.path, tc.body); got != tc.want {
			t.Errorf("%s: %s %s = %d, want %d", tc.name, tc.method, tc.path, got, tc.want)
		}
	}

	// A valid create is 201 and assigns an id.
	resp, err := http.Post(ts.URL+"/campaigns", "application/json",
		strings.NewReader(`{"prog":"storm-s"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d, want 201", resp.StatusCode)
	}
}

// endlessBody is a request body of n bytes, a JSON string value that
// never closes, generated as it is read. read is atomic: the client's
// transport may still be reading when the response arrives.
type endlessBody struct {
	read atomic.Int64
	n    int64
}

func (b *endlessBody) Read(p []byte) (int, error) {
	off := b.read.Load()
	if off >= b.n {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), b.n-off)]
	const prefix = `{"prog":"`
	for i := range p {
		p[i] = 'a'
		if off+int64(i) < int64(len(prefix)) {
			p[i] = prefix[off+int64(i)]
		}
	}
	b.read.Add(int64(len(p)))
	return len(p), nil
}

// TestBodyBounds: a body over maxBodyBytes is refused with 413 after
// the server has read about the cap, so neither the bytes read nor the
// bytes allocated grow with the body, and a body naming a field the
// endpoint does not know is refused with 400.
func TestBodyBounds(t *testing.T) {
	co, _ := newTestCoordinator(t)
	ts := httptest.NewServer(NewServer(co, nil))
	defer ts.Close()

	for path, body := range map[string]string{
		"/campaigns":                `{"prog":"storm-s","progr":"x"}`,
		"/campaigns/c999/lease":     `{"worker":"w","workers":2}`,
		"/campaigns/c999/heartbeat": `{"lease":"x","ttl":5}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with an unknown field = %d, want 400", path, resp.StatusCode)
		}
	}

	body := &endlessBody{n: 64 * maxBodyBytes}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", body)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", resp.StatusCode)
	}
	if sent := body.read.Load(); sent >= body.n/4 {
		t.Errorf("client sent %d of %d bytes before the refusal", sent, body.n)
	}
	// The JSON decoder buffers one value, growing its buffer by doubling
	// up to the cap: a few times the cap in all, whatever the body size.
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte body: %d bytes sent, %d allocated", body.n, body.read.Load(), alloc)
	if alloc > 8*maxBodyBytes {
		t.Errorf("refusing a %d-byte body allocated %d bytes, bound %d", body.n, alloc, 8*maxBodyBytes)
	}
}

// TestFindingsStreamOverHTTP runs a stop-on-error sensor campaign with
// one HTTP worker and consumes the NDJSON finding stream end-to-end:
// the stream must deliver the finding (classified with its containing
// guest function and the worker that hit it) and then close, because
// the campaign left the running state.
func TestFindingsStreamOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("worker exploration is slow")
	}
	co, err := NewCoordinator("", nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(co, nil))
	defer ts.Close()
	cl := NewClient(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := cl.Create(ctx, Spec{Prog: "sensor", Batch: 8, LeaseTTLMS: 60_000, StopOnError: true})
	if err != nil {
		t.Fatal(err)
	}

	wctx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	go RunWorker(wctx, WorkerOptions{Server: ts.URL, ID: "streamer", Poll: 20 * time.Millisecond})

	var got []WireFinding
	final, err := cl.StreamFindings(ctx, st.Spec.ID, func(f WireFinding) {
		got = append(got, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("stream closed with campaign %q", final.State)
	}
	if len(got) == 0 {
		t.Fatal("stream delivered no findings")
	}
	f := got[0]
	if f.Kind == "" || f.PC == 0 {
		t.Fatalf("finding missing classification: %+v", f)
	}
	if f.Func == "" {
		t.Fatalf("finding not located to a guest function: %+v", f)
	}
	if f.Worker != "streamer" {
		t.Fatalf("finding worker = %q, want streamer", f.Worker)
	}
}

// TestCancelOverHTTP: DELETE turns away the worker — a subsequent lease
// request comes back Done and the status reads canceled.
func TestCancelOverHTTP(t *testing.T) {
	co, _ := newTestCoordinator(t)
	ts := httptest.NewServer(NewServer(co, nil))
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := context.Background()

	st, err := cl.Create(ctx, Spec{Prog: "storm-s"})
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	if st, err = cl.Cancel(ctx, id); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel: %+v err=%v", st, err)
	}
	l, err := cl.Lease(ctx, id, LeaseRequest{Worker: "w"})
	if err != nil || !l.Done || l.State != StateCanceled {
		t.Fatalf("lease after cancel: %+v err=%v", l, err)
	}
	if st, err = cl.Get(ctx, id); err != nil || st.State != StateCanceled {
		t.Fatalf("status after cancel: %+v err=%v", st, err)
	}
}
