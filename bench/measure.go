package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// Iteration counts of one run: enough iterations for a median, and a
// cap so a run of tiny iterations still ends.
const (
	minIterations = 3
	maxIterations = 40
)

// childRun is one iteration as the parent saw it: the child's report
// plus its peak resident set from rusage.
type childRun struct {
	res    *iterResult
	rssMB  float64
	traced bool
}

// runResult is one run of one workload: every iteration it made and the
// metrics derived from them.
type runResult struct {
	Workload   string
	Iterations int
	Attempted  int
	Failed     int
	Failures   []string
	Metrics    map[string]float64
	// Raw holds the unscaled medians of wall_s and setup_s and the
	// median probe pass (cal_s) behind the scaled metrics.
	Raw map[string]float64
}

// runIteration executes one iteration of the named workload in this
// process. Small selects the scaled-down sizes of the package tests.
func runIteration(name string, seed int64, traced, small bool, run int, spansPath string) (*iterResult, error) {
	w, ok := workloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	it := newIter(name, seed, traced, small, run)
	probe := startProbe()
	err := w.run(it)
	cal := probe.stop()
	if err != nil {
		if it.heap != nil {
			it.heap.stop()
		}
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res, err := it.finish()
	if err != nil {
		return nil, err
	}
	for _, name := range w.unmeasured {
		delete(res.Layers, name)
	}
	res.CalS = cal
	if traced && spansPath != "" {
		if err := it.spans.write(spansPath); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runChild executes one iteration in a fresh child process, the way a
// user's CLI run starts: cold caches, its own heap, and a peak RSS of
// its own. GOMAXPROCS is pinned to 2 so runs compare across hosts.
func runChild(self, name string, seed int64, traced bool, run int, spansPath string) (*childRun, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "-child", name, "-seed", strconv.FormatInt(seed, 10),
		"-trace", tr, "-run", strconv.Itoa(run), "-spans", spansPath)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s iteration %d: %w", name, run, err)
	}
	var res iterResult
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("%s iteration %d: bad child report: %w", name, run, err)
	}
	cr := &childRun{res: &res, traced: traced}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cr, nil
}

// childSeed derives iteration i's seed from the run seed, so one run
// medians over several fuzzing schedules and the same run seed always
// yields the same inputs.
func childSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// measure runs the named workload for about the given time, one child
// process per iteration, and reduces the iterations to metrics: the
// end-to-end metrics (medians over iterations), or with traced the
// per-layer metrics of alternating traced iterations plus the tracing
// overhead against the untraced ones between them. A run stops starting
// iterations once another median-length one would overrun the time,
// after at least minIterations (two traced and two untraced ones when
// traced).
func measure(self, name string, seed int64, seconds int, traced bool, spansDir string) (*runResult, error) {
	budget := time.Duration(seconds) * time.Second
	minIter := minIterations
	if traced {
		minIter = 4
	}
	rr := &runResult{Workload: name}
	var runs []*childRun
	var durs []float64
	start := time.Now()
	for i := 0; i < maxIterations; i++ {
		t := traced && i%2 == 0
		spans := ""
		if t {
			spans = filepath.Join(spansDir, fmt.Sprintf("%s-seed%d-run%d.jsonl", name, seed, i))
		}
		iterStart := time.Now()
		cr, err := runChild(self, name, childSeed(seed, i), t, i, spans)
		durs = append(durs, time.Since(iterStart).Seconds())
		rr.Iterations++
		if err != nil {
			rr.Attempted++
			rr.Failed++
			rr.Failures = append(rr.Failures, err.Error())
		} else {
			runs = append(runs, cr)
			rr.Attempted += cr.res.Checks
			rr.Failed += len(cr.res.Failures)
			rr.Failures = append(rr.Failures, cr.res.Failures...)
		}
		elapsed := time.Since(start).Seconds()
		if rr.Iterations >= minIter && elapsed+median(durs) > budget.Seconds() {
			break
		}
	}
	var plain, withTrace []*childRun
	for _, cr := range runs {
		if cr.traced {
			withTrace = append(withTrace, cr)
		} else {
			plain = append(plain, cr)
		}
	}
	if len(plain) == 0 || (traced && len(withTrace) == 0) {
		return rr, fmt.Errorf("%s: no iteration completed", name)
	}
	rr.Raw = rawMedians(plain)
	if traced {
		rr.Metrics = layerMedians(withTrace)
		rr.Metrics["trace_overhead"] = median(scaledWalls(withTrace))/median(scaledWalls(plain)) - 1
	} else {
		rr.Metrics = endToEndMedians(plain)
	}
	return rr, nil
}

// speed is the factor that scales an iteration's times to the
// reference host speed (cal.go).
func (r *childRun) speed() float64 {
	if r.res.CalS <= 0 {
		return 1
	}
	return calRef / r.res.CalS
}

func scaledWalls(runs []*childRun) []float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.res.WallS*r.speed())
	}
	return xs
}

// endToEndMedians reduces untraced iterations to the end-to-end
// metrics. Each iteration's times are scaled to the reference host
// speed and its throughputs taken against the scaled wall time; the
// metrics are the medians over iterations.
func endToEndMedians(runs []*childRun) map[string]float64 {
	var setup, wall, execs, instr, rss []float64
	for _, r := range runs {
		w := r.res.WallS * r.speed()
		setup = append(setup, r.res.SetupS*r.speed())
		wall = append(wall, w)
		execs = append(execs, ratio(float64(r.res.Execs), w))
		instr = append(instr, ratio(float64(r.res.Instr), w))
		rss = append(rss, r.rssMB)
	}
	return map[string]float64{
		"setup_s":     median(setup),
		"wall_s":      median(wall),
		"execs_per_s": median(execs),
		"instr_per_s": median(instr),
		"peak_rss_mb": median(rss),
	}
}

// rawMedians are the unscaled medians, printed and stored beside the
// scaled metrics.
func rawMedians(runs []*childRun) map[string]float64 {
	var setup, wall, cal []float64
	for _, r := range runs {
		setup = append(setup, r.res.SetupS)
		wall = append(wall, r.res.WallS)
		cal = append(cal, r.res.CalS)
	}
	return map[string]float64{"wall_s": median(wall), "setup_s": median(setup), "cal_s": median(cal)}
}

// layerMedians reduces traced iterations to per-layer medians.
func layerMedians(runs []*childRun) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		var xs []float64
		for _, r := range runs {
			if v, ok := r.res.Layers[d.Name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			m[d.Name] = median(xs)
		}
	}
	return m
}
