package guest

import (
	"context"
	"testing"

	"rvcte/internal/cte"
	"rvcte/internal/qcache"
	"rvcte/internal/smt"
)

// TestModelGuard is the model-check guard: on the patched TCP/IP sweep
// (the last find-fix stage) and on storm-s, explored the way
// `cte -j 1 -stop-on-error=false` does, every sat answer the query cache
// hands the engine — fresh from the solver or served from the cache —
// must satisfy its condition set under the solver-independent
// qcache.ValidateModel. Every answer is counted (unsat ones carry no
// model); the TCP/IP sweep gives over 1000 of them. A solver change that
// breaks models is caught here before a bad model reaches a child path.
func TestModelGuard(t *testing.T) {
	for _, tc := range []struct {
		name       string
		prog       Program
		minAnswers int
	}{
		{"tcpip-fix1-6", TCPIPProgram(0b111111, 64), 1000},
		{"storm-s", func() Program { p, _ := BenchProgram("storm-s"); return p }(), 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := smt.NewBuilder()
			core, _, err := NewCore(b, tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			qc := qcache.New(b, qcache.Options{})
			var answers, sats, cached, failed int
			// Workers 1: the hook runs on the one worker goroutine.
			qc.OnAnswer = func(conds []*smt.Expr, sat bool, model smt.Assignment, fromCache bool) {
				answers++
				if fromCache {
					cached++
				}
				if !sat {
					return
				}
				sats++
				if !qcache.ValidateModel(conds, model) {
					failed++
					if failed <= 3 {
						t.Errorf("sat answer (fromCache=%v) over %d conditions carries an invalid model %v", fromCache, len(conds), model)
					}
				}
			}
			rep := cte.NewSession(core, cte.Config{
				Workers: 1,
				Cache:   cte.CacheConfig{Queries: qc},
				Fork:    cte.ForkConfig{Enabled: true, MinPrefix: 2000},
			}).Run(context.Background())
			t.Logf("%s: %d paths, %d answers (%d sat, %d cache-served), %d invalid models", tc.name, rep.Paths, answers, sats, cached, failed)
			if !rep.Exhausted {
				t.Fatalf("the sweep must exhaust: %v", rep)
			}
			if failed != 0 {
				t.Fatalf("%d of %d sat models fail validation", failed, sats)
			}
			if answers <= tc.minAnswers || sats == 0 || cached == 0 {
				t.Fatalf("guard saw %d answers (%d sat, %d cache-served); want over %d, with sat and cache-served ones",
					answers, sats, cached, tc.minAnswers)
			}
		})
	}
}
