package main

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestSmokeAllWorkloads runs every workload once, scaled down and
// traced, through the same code as a measured iteration: every check
// must pass and every end-to-end input and per-layer metric must be
// reported, except the ones the workload leaves unmeasured.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runIteration(w.name, 1, true, true, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Checks == 0 || len(res.Failures) > 0 {
				t.Fatalf("checks: %d run, failures %v", res.Checks, res.Failures)
			}
			if res.SetupS <= 0 || res.WallS <= 0 || res.Execs == 0 || res.Instr == 0 {
				t.Errorf("end-to-end inputs must be positive: %+v", res)
			}
			for _, d := range perLayer {
				if d.Name == "trace_overhead" {
					continue // a run-level metric: traced vs untraced iterations
				}
				v, ok := res.Layers[d.Name]
				if slices.Contains(w.unmeasured, d.Name) {
					if ok {
						t.Errorf("unmeasured per-layer metric %s reported as %v", d.Name, v)
					}
					continue
				}
				if !ok || math.IsNaN(v) || v < 0 {
					t.Errorf("per-layer metric %s = %v (present %v)", d.Name, v, ok)
				}
			}
		})
	}
}

// TestSchemaMatchesBenchmarkJSON pins BENCHMARK.json to the code:
// every workload it lists exists, and every metric it names is the one
// the benchmark reports, with the same unit, in the same set.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %s is not in the benchmark", w.Name)
		}
	}
	check := func(kind string, names, units []string, defs []metricDef) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, the benchmark reports %d", kind, len(names), len(defs))
		}
		for i, n := range names {
			if u := unitOf(n); u != units[i] {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, benchmark unit %q", kind, n, units[i], u)
			}
		}
	}
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", names, units, endToEnd)
	names, units = nil, nil
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", names, units, perLayer)

	// The result line of an untraced run carries exactly the
	// end-to-end metrics.
	m := endToEndMedians([]*childRun{{res: &iterResult{SetupS: 1, WallS: 2, Execs: 3, Instr: 4}, rssMB: 5}})
	for _, d := range endToEnd {
		if _, ok := m[d.Name]; !ok {
			t.Errorf("end-to-end metric %s not reported", d.Name)
		}
	}
	if len(m) != len(endToEnd) {
		t.Errorf("result line has %d end-to-end metrics, want %d", len(m), len(endToEnd))
	}
}

// TestEndToEndScalesToReferenceSpeed: an iteration whose probe pass
// took twice the reference time ran on a host at half speed, so
// its times halve and its rates double; memory is not scaled.
func TestEndToEndScalesToReferenceSpeed(t *testing.T) {
	slow := &childRun{res: &iterResult{SetupS: 0.2, WallS: 4, Execs: 100, Instr: 1000, CalS: 2 * calRef}, rssMB: 50}
	m := endToEndMedians([]*childRun{slow})
	want := map[string]float64{"setup_s": 0.1, "wall_s": 2, "execs_per_s": 50, "instr_per_s": 500, "peak_rss_mb": 50}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

// unitOf returns the unit of a metric the benchmark defines.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

func stats(values ...float64) *metricStats {
	m := &metricStats{Values: values}
	m.Q1, m.Median, m.Q3 = quartiles(values)
	return m
}

func TestJudge(t *testing.T) {
	tests := []struct {
		name   string
		better string
		a, b   *metricStats
		want   string
	}{
		{"same", "lower", stats(10, 10.1, 10.2, 10.3), stats(10, 10.1, 10.2, 10.3), verdictPass},
		{"slower beyond bound", "lower", stats(10, 10.1, 10.2), stats(12, 12.1, 12.2), verdictRegress},
		{"slower within bound", "lower", stats(10, 10.1, 10.2), stats(10.5, 10.6, 10.7), verdictPass},
		{"lower throughput", "higher", stats(100, 101, 102), stats(80, 81, 82), verdictRegress},
		{"higher throughput", "higher", stats(100, 101, 102), stats(120, 121, 122), verdictPass},
		{"noisy", "lower", stats(8, 10, 13), stats(9, 10.5, 12), verdictUnresolved},
		{"noisy but every run faster", "lower", stats(10, 12, 14), stats(7, 8, 9.5), verdictPass},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got, _ := judge(tt.better, 0.1, tt.a, tt.b); got != tt.want {
				t.Errorf("judge = %s, want %s", got, tt.want)
			}
		})
	}
}

func TestCompareFlagsFailRatioAndRegression(t *testing.T) {
	spec := &benchSpec{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd:  []specMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}},
	}
	file := func(wall float64, failed int) *benchFile {
		return &benchFile{Workloads: map[string]*workloadStats{"w": {
			Attempted: 10, Failed: failed,
			Metrics: map[string]*metricStats{"wall_s": stats(wall, wall, wall)},
		}}}
	}
	var out bytes.Buffer
	if n := compare(&out, spec, file(1, 0), file(1, 0)); n != 0 {
		t.Errorf("identical files: %d regressions\n%s", n, out.String())
	}
	out.Reset()
	if n := compare(&out, spec, file(1, 0), file(1, 1)); n != 1 || !strings.Contains(out.String(), "fail_ratio") {
		t.Errorf("a failed check must regress fail_ratio: %d regressions\n%s", n, out.String())
	}
	out.Reset()
	if n := compare(&out, spec, file(1, 0), file(2, 0)); n != 1 {
		t.Errorf("doubled wall time: %d regressions\n%s", n, out.String())
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(data, n=4), which external checkers use.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	l := &spanLog{}
	l.spans = []span{
		{ID: 0, Name: "cte.session:x", Start: 0, End: 10, Parent: -1},
		{ID: 1, Name: "iss.path", Start: 1, End: 4, Parent: 0},
		{ID: 2, Name: "iss.path", Start: 3, End: 5, Parent: 0}, // overlaps the first
		{ID: 3, Name: "smt.query", Start: 9, End: 12, Parent: 0},
	}
	if got := l.selfTime("cte.session:"); got != 10-4-1 {
		t.Errorf("self time = %v, want 5", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tt := range []struct {
		n    int
		want float64
	}{{0, 0.5}, {10, 0.5}, {100, 0.9}, {1000, 0.99}, {5000, 0.99}} {
		if got := tailPercentile(tt.n); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
}
