package main

import (
	"fmt"
	"io"
)

// Comparer verdicts for one workload × end-to-end metric.
const (
	verdictPass       = "pass"
	verdictRegress    = "REGRESS"
	verdictUnresolved = "unresolved"
)

// judge compares metric runs A (the parent) and B (the change). B
// regresses when its median is worse than A's by more than bound (a
// share of A's median). Otherwise the comparison is unresolved when
// either side's quartile spread, as a share of its median, is wider
// than the bound — unless every B run beats every A run. worse is B's
// relative change in the worsening direction.
func judge(better string, bound float64, a, b *metricStats) (verdict string, worse float64) {
	worse = ratio(b.Median-a.Median, a.Median)
	if better == "higher" {
		worse = -worse
	}
	if worse > bound {
		return verdictRegress, worse
	}
	spread := max(ratio(a.Q3-a.Q1, a.Median), ratio(b.Q3-b.Q1, b.Median))
	if spread > bound && !allBeat(better, a.Values, b.Values) {
		return verdictUnresolved, worse
	}
	return verdictPass, worse
}

// allBeat reports whether every value of bs is better than every value
// of as.
func allBeat(better string, as, bs []float64) bool {
	if len(as) == 0 || len(bs) == 0 {
		return false
	}
	for _, a := range as {
		for _, b := range bs {
			if (better == "higher" && b <= a) || (better != "higher" && b >= a) {
				return false
			}
		}
	}
	return true
}

// compare prints one row per workload × end-to-end metric of spec, plus
// a fail_ratio row wherever B fails a larger share of its checks than
// A, and returns the number of regressions. Header fields that make
// runs incomparable (host, Go version, run shape) are warned about.
func compare(w io.Writer, spec *benchSpec, a, b *benchFile) int {
	ha, hb := a.Header, b.Header
	for _, d := range []struct {
		name   string
		va, vb any
	}{
		{"nproc", ha.NProc, hb.NProc},
		{"gomaxprocs", ha.GOMAXPROCS, hb.GOMAXPROCS},
		{"go_version", ha.GoVersion, hb.GoVersion},
		{"seed", ha.Seed, hb.Seed},
		{"rounds", ha.Rounds, hb.Rounds},
		{"seconds", ha.Seconds, hb.Seconds},
	} {
		if d.va != d.vb {
			fmt.Fprintf(w, "warning: headers differ in %s: %v vs %v\n", d.name, d.va, d.vb)
		}
	}
	fmt.Fprintf(w, "A = %s (%s)\nB = %s (%s)\n", ha.Label, ha.Commit, hb.Label, hb.Commit)
	fmt.Fprintf(w, "%-15s %-12s %30s %30s %8s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "worse", "verdict")
	regressions := 0
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-15s missing from A or B\n", wl.Name)
			regressions++
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, mb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			if ma == nil || mb == nil {
				fmt.Fprintf(w, "%-15s %-12s missing\n", wl.Name, m.Name)
				regressions++
				continue
			}
			v, worse := judge(m.Better, m.Bound, ma, mb)
			if v == verdictRegress {
				regressions++
			}
			fmt.Fprintf(w, "%-15s %-12s %30s %30s %+7.1f%%  %s (bound %.0f%%)\n", wl.Name, m.Name,
				quart(ma), quart(mb), 100*worse, v, 100*m.Bound)
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		if fb > fa {
			regressions++
			fmt.Fprintf(w, "%-15s %-12s %30.4f %30.4f %8s  %s\n", wl.Name, "fail_ratio", fa, fb, "", verdictRegress)
		}
	}
	fmt.Fprintf(w, "%d regression(s)\n", regressions)
	return regressions
}

func quart(m *metricStats) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", m.Median, m.Q1, m.Q3)
}
