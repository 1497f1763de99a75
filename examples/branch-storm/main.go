// Branch-storm: the SMT query cache (internal/qcache) under a guest
// built to stress it — many overlapping branch conditions over a small
// symbolic buffer (the storm-s benchmark program).
//
// The demo explores the same guest three ways and prints the solver
// work side by side:
//
//  1. cache off — every trace condition goes to the SAT solver;
//  2. cache on, cold — model reuse, unsat subsumption and independence
//     slicing answer most queries without the solver;
//  3. cache on, warm — a second process-equivalent run primed from the
//     cache file persisted by run 2 (the -cache-dir workflow of cmd/cte).
//
// Run with: go run ./examples/branch-storm
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"rvcte/internal/cte"
	"rvcte/internal/findfix"
	"rvcte/internal/qcache"
	"rvcte/internal/smt"
)

// explore builds a fresh storm-s system (its own builder, so nothing
// leaks between runs) and explores it to exhaustion.
func explore(cacheFile string, load bool) (*cte.Report, *qcache.Cache, error) {
	b := smt.NewBuilder()
	g, err := findfix.Target{Prog: "storm-s"}.Build(b)
	if err != nil {
		return nil, nil, err
	}
	var qc *qcache.Cache
	if cacheFile != "" {
		qc = qcache.New(b, qcache.Options{})
		if load {
			if err := qc.Load(cacheFile); err != nil {
				return nil, nil, err
			}
		}
	}
	rep := cte.NewSession(g.Core, cte.Config{
		Budget: cte.Budget{MaxPaths: 2000},
		Cache:  cte.CacheConfig{Queries: qc},
	}).Run(context.Background())
	if cacheFile != "" && !load {
		if err := qc.Save(cacheFile); err != nil {
			return nil, nil, err
		}
	}
	return rep, qc, nil
}

func main() {
	dir, err := os.MkdirTemp("", "branch-storm-cache")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cacheFile := filepath.Join(dir, "storm-s.qcache")

	fmt.Println("== branch-storm: exploring storm-s three ways ==")

	cold, _, err := explore("", false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncache off:   %4d paths, %4d SAT queries, %.3fs solver, %d findings\n",
		cold.Paths, cold.Queries, cold.SolverTime.Seconds(), len(cold.Findings))

	cached, _, err := explore(cacheFile, false)
	if err != nil {
		log.Fatal(err)
	}
	cs := cached.Cache
	fmt.Printf("cache cold:  %4d paths, %4d SAT queries, %.3fs solver, %d findings\n",
		cached.Paths, cached.Queries, cached.SolverTime.Seconds(), len(cached.Findings))
	fmt.Printf("             %d exact hits, %d model reuses, %d unsat subsumptions, %d sliced solves\n",
		cs.Hits, cs.EvalHits, cs.SubsumeHits, cs.SliceSolves)

	warm, _, err := explore(cacheFile, true)
	if err != nil {
		log.Fatal(err)
	}
	ws := warm.Cache
	fmt.Printf("cache warm:  %4d paths, %4d SAT queries, %.3fs solver, %d findings (%d entries loaded)\n",
		warm.Paths, warm.Queries, warm.SolverTime.Seconds(), len(warm.Findings), ws.Loaded)

	if cold.Paths != cached.Paths || cold.SatTCs != cached.SatTCs || cold.UnsatTCs != cached.UnsatTCs {
		log.Fatalf("cache changed the exploration result: %v vs %v", cold, cached)
	}
	if cached.Queries >= cold.Queries {
		log.Fatalf("cache did not reduce SAT queries: %d vs %d", cached.Queries, cold.Queries)
	}
	if warm.Queries >= cached.Queries {
		log.Fatalf("warm start did not reduce SAT queries further: %d vs %d", warm.Queries, cached.Queries)
	}
	fmt.Printf("\nsame %d paths and %d/%d sat/unsat TCs on every run; SAT queries %d -> %d -> %d\n",
		cold.Paths, cold.SatTCs, cold.UnsatTCs, cold.Queries, cached.Queries, warm.Queries)
}
