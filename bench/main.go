// Command bench is the repository benchmark. It drives five fixed
// workloads through the engines' public APIs (guest, cte, iss, smt,
// bmc, campaign), checks their results, and reports end-to-end metrics
// from untraced runs and per-layer metrics from traced ones. README.md
// lists the workloads and metrics.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bash bench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                      # every workload, BENCH_<label>.json
//	bash bench/run.sh -trace 1             # ... plus per-layer metrics and spans
//	bash bench/run.sh -compare A.json B.json
//
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Every iteration runs in
// a fresh child process of the benchmark. Exit codes: 0 = measured (or no
// regression), 1 = regression found by -compare, 2 = usage or set-up
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	workload := flag.String("workload", "", "measure one workload and print its result line (default: every workload, written to BENCH_<label>.json)")
	seed := flag.Int64("seed", 1, "input seed: feeds cte.Config.Seed and campaign.Spec.Seed (iteration i of a run uses seed*1000+i)")
	seconds := flag.Int("seconds", 0, "measured time per workload run (0 = run_seconds of the -spec file)")
	trace := flag.Int("trace", 0, "1 = traced runs: report per-layer metrics, tracing overhead and span files instead of end-to-end metrics")
	label := flag.String("label", "local", "every-workload mode: result file label (BENCH_<label>.json)")
	outDir := flag.String("out", "bench/out", "directory for BENCH files and span files")
	compareMode := flag.Bool("compare", false, "compare two BENCH files given as arguments: -compare A.json B.json")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition: bounds, directions and run length")
	child := flag.String("child", "", "internal: run one iteration of this workload and print its report")
	run := flag.Int("run", 0, "internal: iteration index of -child")
	spans := flag.String("spans", "", "internal: span file of a traced -child")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		usage("-trace must be 0 or 1")
	}

	switch {
	case *child != "":
		res, err := runIteration(*child, *seed, *trace == 1, false, *run, *spans)
		if err != nil {
			fail(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fail(err)
		}
	case *compareMode:
		if flag.NArg() != 2 {
			usage("-compare needs two BENCH files")
		}
		spec, err := loadSpec(*specPath)
		if err != nil {
			fail(err)
		}
		a, err := loadBench(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		b, err := loadBench(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if compare(os.Stdout, spec, a, b) > 0 {
			os.Exit(1)
		}
	default:
		secs := *seconds
		if secs <= 0 {
			spec, err := loadSpec(*specPath)
			if err != nil {
				fail(err)
			}
			secs = spec.RunSeconds
		}
		self := executable()
		if *workload == "" {
			if err := suite(self, secs, *seed, *label, *outDir, *trace == 1); err != nil {
				fail(err)
			}
			return
		}
		if _, ok := workloadByName(*workload); !ok {
			usage(fmt.Sprintf("unknown workload %q", *workload))
		}
		rr, err := measure(self, *workload, *seed, secs, *trace == 1, filepath.Join(*outDir, "spans"))
		if err != nil {
			fail(err)
		}
		printRun(rr, *seed, secs, *trace == 1)
	}
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printRun prints every metric of the run by name with its unit, then
// the result line. The result line carries every metric of its kind; a
// per-layer metric the workload leaves unmeasured is printed as such
// and carried as 0.
func printRun(rr *runResult, seed int64, secs int, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("# %s: %d iterations (seed %d, %d s), %d/%d checks passed\n",
		rr.Workload, rr.Iterations, seed, secs, rr.Attempted-rr.Failed, rr.Attempted)
	fmt.Printf("# unscaled medians: wall_s %.6g s, setup_s %.6g s; probe pass %.6g s (reference %.3g s)\n",
		rr.Raw["wall_s"], rr.Raw["setup_s"], rr.Raw["cal_s"], calRef)
	for _, f := range rr.Failures {
		fmt.Printf("# FAILED: %s\n", f)
	}
	out := result{Correct: rr.Failed == 0, Attempted: rr.Attempted, Failed: rr.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rr.Metrics[d.Name]
		if ok {
			fmt.Printf("%-26s %16.6g %s\n", d.Name, v, d.Unit)
		} else {
			fmt.Printf("%-26s %16s %s\n", d.Name, "unmeasured", d.Unit)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func executable() string {
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	return self
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	flag.Usage()
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
