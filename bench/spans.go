package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rvcte/internal/obs"
)

// span is one timed interval of a traced run. Start and End are seconds
// since the run began; Parent is the ID of the span that caused it (-1
// for the workload root). Spans are kept in memory and written out when
// the run ends.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Run    int     `json:"run"`
}

// spanLog records the spans of one traced run. A nil *spanLog records
// nothing, so untraced runs pay one nil test per boundary.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	run    int
	spans  []span
}

func newSpanLog(run int) *spanLog {
	return &spanLog{origin: time.Now(), run: run}
}

func (l *spanLog) at(t time.Time) float64 { return t.Sub(l.origin).Seconds() }

// begin opens a span and returns its ID (-1 on a nil log).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	now := l.at(time.Now())
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Name: name, Start: now, End: now, Parent: parent, Run: l.run})
	return id
}

// end closes the span opened by begin.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	now := l.at(time.Now())
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// add records a finished span.
func (l *spanLog) add(name string, start, end time.Time, parent int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: len(l.spans), Name: name,
		Start: l.at(start), End: l.at(end), Parent: parent, Run: l.run})
	l.mu.Unlock()
}

// traceSpanNames maps the duration-carrying obs trace events onto the
// layer spans they stand for.
var traceSpanNames = map[string]string{
	obs.EvPathEnd:   "iss.path",
	obs.EvSatQuery:  "smt.query",
	obs.EvFuzzBatch: "fuzz.batch",
}

// addTrace turns the duration-carrying events of one session's JSONL
// trace into child spans of the session span. Event timestamps are
// emission times relative to the tracer's start (t0), so an event with
// a duration covers [t0+T-dur, t0+T].
func (l *spanLog) addTrace(evs []obs.Event, t0 time.Time, parent int) {
	for _, ev := range evs {
		name, ok := traceSpanNames[ev.Ev]
		if !ok {
			continue
		}
		end := t0.Add(time.Duration(ev.T * float64(time.Second)))
		l.add(name, end.Add(-time.Duration(ev.DurUS)*time.Microsecond), end, parent)
	}
}

// durations returns the durations (µs) of every span with the name.
func (l *spanLog) durations(name string) []float64 {
	if l == nil {
		return nil
	}
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, (s.End-s.Start)*1e6)
		}
	}
	return out
}

// total is the summed duration (s) of every span with the name.
func (l *spanLog) total(name string) float64 {
	var t float64
	for _, us := range l.durations(name) {
		t += us / 1e6
	}
	return t
}

// selfTime is the summed self time (s) of every span whose name starts
// with prefix: its duration minus the part of its interval that its
// child spans cover. Children of one parent may overlap (parallel
// workers), so coverage is the union of their intervals.
func (l *spanLog) selfTime(prefix string) float64 {
	if l == nil {
		return 0
	}
	children := map[int][][2]float64{}
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	var self float64
	for _, s := range l.spans {
		if !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		self += (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi float64
	open := false
	for _, iv := range ivs {
		a, b := clamp(iv[0], lo, hi), clamp(iv[1], lo, hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			if b > curHi {
				curHi = b
			}
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// clamp clamps v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// write stores the spans as JSONL at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
