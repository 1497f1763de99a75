package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// benchFile is a BENCH_<label>.json: the header of the host and build
// it was measured on, and per workload the end-to-end metrics of every
// run with their median and quartiles (plus the per-layer medians of
// one traced run when asked for).
type benchFile struct {
	Header    benchHeader               `json:"header"`
	Workloads map[string]*workloadStats `json:"workloads"`
}

type benchHeader struct {
	Label      string `json:"label"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Rounds     int    `json:"rounds"`
	Seconds    int    `json:"seconds"`
	Date       string `json:"date"`
}

type workloadStats struct {
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Failures  []string                `json:"failures,omitempty"`
	Metrics   map[string]*metricStats `json:"metrics"`
	// Raw holds each run's unscaled wall_s and setup_s medians and its
	// median probe pass (cal_s), the inputs of the scaling.
	Raw    map[string][]float64   `json:"raw"`
	Layers map[string]metricValue `json:"layers,omitempty"`
	// Unmeasured names the per-layer metrics the workload runs but the
	// benchmark cannot observe; Layers leaves them out.
	Unmeasured []string `json:"unmeasured,omitempty"`
}

type metricStats struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// suiteRounds is how many runs of each workload a BENCH file holds.
const suiteRounds = 5

// suite measures every workload suiteRounds times, alternating the
// workload order between rounds so slow drift in the host does not
// favour one workload, and writes BENCH_<label>.json. Round r uses
// seed+r. With traced, one traced run per workload follows and its
// per-layer medians and span files are kept too.
func suite(self string, seconds int, seed int64, label, outDir string, traced bool) error {
	bf := &benchFile{
		Header: benchHeader{
			Label: label, Commit: commit(), GoVersion: runtime.Version(),
			NProc: runtime.NumCPU(), GOMAXPROCS: 2, Seed: seed,
			Rounds: suiteRounds, Seconds: seconds, Date: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]*workloadStats{},
	}
	for _, w := range workloads {
		ws := &workloadStats{Metrics: map[string]*metricStats{}, Raw: map[string][]float64{}}
		for _, d := range endToEnd {
			ws.Metrics[d.Name] = &metricStats{Unit: d.Unit}
		}
		bf.Workloads[w.name] = ws
	}
	for r := 0; r < suiteRounds; r++ {
		order := append([]workload(nil), workloads...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			rr, err := measure(self, w.name, seed+int64(r), seconds, false, filepath.Join(outDir, "spans"))
			if err != nil {
				return err
			}
			ws := bf.Workloads[w.name]
			ws.Attempted += rr.Attempted
			ws.Failed += rr.Failed
			ws.Failures = append(ws.Failures, rr.Failures...)
			for _, d := range endToEnd {
				ws.Metrics[d.Name].Values = append(ws.Metrics[d.Name].Values, rr.Metrics[d.Name])
			}
			for k, v := range rr.Raw {
				ws.Raw[k] = append(ws.Raw[k], v)
			}
			fmt.Fprintf(os.Stderr, "bench: round %d/%d %-15s wall_s %.3f (%d iterations, %d/%d checks failed)\n",
				r+1, suiteRounds, w.name, rr.Metrics["wall_s"], rr.Iterations, rr.Failed, rr.Attempted)
		}
	}
	if traced {
		for _, w := range workloads {
			rr, err := measure(self, w.name, seed, seconds, true, filepath.Join(outDir, "spans"))
			if err != nil {
				return err
			}
			ws := bf.Workloads[w.name]
			ws.Layers = map[string]metricValue{}
			for _, d := range perLayer {
				if v, ok := rr.Metrics[d.Name]; ok {
					ws.Layers[d.Name] = metricValue{Value: v, Unit: d.Unit}
				} else {
					ws.Unmeasured = append(ws.Unmeasured, d.Name)
				}
			}
		}
	}
	for _, w := range workloads {
		for _, ms := range bf.Workloads[w.name].Metrics {
			ms.Q1, ms.Median, ms.Q3 = quartiles(ms.Values)
		}
	}
	printSuite(bf, traced)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "BENCH_"+label+".json")
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// printSuite prints every metric of every workload by name and unit.
func printSuite(bf *benchFile, traced bool) {
	for _, w := range workloads {
		ws := bf.Workloads[w.name]
		fmt.Printf("%s (%d/%d checks passed)\n", w.name, ws.Attempted-ws.Failed, ws.Attempted)
		for _, d := range endToEnd {
			ms := ws.Metrics[d.Name]
			fmt.Printf("  %-26s %14.6g %-8s [%.6g .. %.6g] n=%d\n", d.Name, ms.Median, d.Unit, ms.Q1, ms.Q3, len(ms.Values))
		}
		if traced {
			for _, d := range perLayer {
				if v, ok := ws.Layers[d.Name]; ok {
					fmt.Printf("  %-26s %14.6g %s\n", d.Name, v.Value, d.Unit)
				} else {
					fmt.Printf("  %-26s %14s %s\n", d.Name, "unmeasured", d.Unit)
				}
			}
		}
	}
}

// commit is the VCS revision the benchmark was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func loadBench(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
