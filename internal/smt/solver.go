package smt

import (
	"time"

	"rvcte/internal/obs"
)

// Stats is a snapshot of a solver's query statistics, the "stime" and
// "#queries" columns of the paper's Table 1 and Table 2.
type Stats struct {
	Queries    int           // number of Check calls
	SolverTime time.Duration // total wall time spent inside Check
}

// Solver answers satisfiability queries over expressions from one Builder.
// Blasted CNF structure is retained between queries; assertions are passed
// as SAT assumptions, so the common concolic pattern — many queries that
// share a long path-condition prefix — is incremental.
type Solver struct {
	bld    *Builder
	sat    *Sat
	bl     *blaster
	assume []Lit // Check's assumption buffer

	// MaxConflictsPerQuery bounds each query; 0 means unlimited. When a
	// query exceeds the budget Check returns unknown=true.
	MaxConflictsPerQuery int

	// Observability handles (SetObs) on a child of the wired registry:
	// the child is the only store of the run counters Stats reads.
	obsQueries  *obs.Counter
	obsSat      *obs.Counter
	obsUnsat    *obs.Counter
	obsUnknown  *obs.Counter
	obsTimeNS   *obs.Counter
	obsBlastNS  *obs.Counter
	obsSearchNS *obs.Counter
	obsLatency  *obs.Histogram
	obsVars     *obs.Gauge
	obsClauses  *obs.Gauge
	obsLearnts  *obs.Gauge
	tracer      *obs.Tracer

	// CNF sizes last added to the size gauges, which sum over solvers.
	gaugedVars, gaugedClauses, gaugedLearnts int
}

// SetObs wires the solver into an observability bundle: per-query
// counters under "smt.*" (time split into blasting and CDCL search), a
// query-latency histogram (microseconds), gauges of the CNF size summed
// over every solver on the bundle, and per-query trace events when o
// carries a tracer. The counters restart at zero; a nil o keeps them in
// a registry of their own.
func (s *Solver) SetObs(o *obs.Obs) {
	m := o.Registry().Child()
	s.obsQueries = m.Counter("smt.queries")
	s.obsSat = m.Counter("smt.sat")
	s.obsUnsat = m.Counter("smt.unsat")
	s.obsUnknown = m.Counter("smt.unknown")
	s.obsTimeNS = m.Counter("smt.solver_ns")
	s.obsBlastNS = m.Counter("smt.blast_ns")
	s.obsSearchNS = m.Counter("smt.search_ns")
	s.obsLatency = m.Histogram("smt.query_us", obs.LatencyBoundsUS)
	s.obsVars = m.Gauge("smt.cnf_vars")
	s.obsClauses = m.Gauge("smt.cnf_clauses")
	s.obsLearnts = m.Gauge("smt.learnts")
	s.gaugedVars, s.gaugedClauses, s.gaugedLearnts = 0, 0, 0 // the next query gauges the whole CNF
	s.tracer = o.Trace()
}

// NewSolver creates a solver bound to the builder b.
func NewSolver(b *Builder) *Solver {
	sat := NewSat()
	s := &Solver{bld: b, sat: sat, bl: newBlaster(b, sat)}
	s.SetObs(nil)
	return s
}

// Stats returns the query count and solver time since the last SetObs.
func (s *Solver) Stats() Stats {
	return Stats{Queries: int(s.obsQueries.Value()), SolverTime: time.Duration(s.obsTimeNS.Value())}
}

// gaugeSize adds the growth of the CNF since the last call to the size
// gauges.
func (s *Solver) gaugeSize() {
	vars, clauses, learnts := s.sat.NumVars(), s.sat.clauses, s.sat.learnts
	s.obsVars.Add(int64(vars - s.gaugedVars))
	s.obsClauses.Add(int64(clauses - s.gaugedClauses))
	s.obsLearnts.Add(int64(learnts - s.gaugedLearnts))
	s.gaugedVars, s.gaugedClauses, s.gaugedLearnts = vars, clauses, learnts
}

// Check determines whether the conjunction of conds is satisfiable. Each
// cond must have width 1. On sat, model assigns every variable blasted so
// far (variables not constrained get zero). unknown reports budget
// exhaustion (callers treat it as unsat-for-now during exploration).
func (s *Solver) Check(conds ...*Expr) (sat bool, model Assignment, unknown bool) {
	start := time.Now()
	var blastDur, searchDur time.Duration
	defer func() {
		dur := time.Since(start)
		s.obsQueries.Inc()
		s.obsTimeNS.Add(int64(dur))
		s.obsBlastNS.Add(int64(blastDur))
		s.obsSearchNS.Add(int64(searchDur))
		s.obsLatency.ObserveDuration(dur)
		s.gaugeSize()
		result := "unsat"
		switch {
		case sat:
			result = "sat"
			s.obsSat.Inc()
		case unknown:
			result = "unknown"
			s.obsUnknown.Inc()
		default:
			s.obsUnsat.Inc()
		}
		if s.tracer != nil {
			s.tracer.Emit(obs.Event{Ev: obs.EvSatQuery, DurUS: dur.Microseconds(),
				N: int64(len(conds)), Result: result})
		}
	}()

	s.assume = s.assume[:0]
	for _, c := range conds {
		if c.Width != 1 {
			panic("smt: Check condition must have width 1")
		}
		if c.IsFalse() {
			return false, nil, false
		}
		if c.IsTrue() {
			continue
		}
		s.assume = append(s.assume, s.bl.blastBool(c))
	}
	blasted := time.Now()
	blastDur = blasted.Sub(start)
	s.sat.Budget = s.MaxConflictsPerQuery
	res := s.sat.solveKeep(s.assume...)
	searchDur = time.Since(blasted)
	if res != SatResult {
		s.sat.cancelUntil(0)
		if res == Unknown {
			return false, nil, true
		}
		return false, nil, false
	}
	model = make(Assignment, len(s.bl.vars))
	for _, bv := range s.bl.vars {
		var v uint64
		for i, l := range bv.bits {
			if s.sat.value(l) == lTrue {
				v |= 1 << i
			}
		}
		model[bv.id] = v
	}
	s.sat.cancelUntil(0)
	return true, model, false
}

// Value returns the model value of the named variable, defaulting to 0
// when the variable is absent from the model or unknown to the builder.
func (b *Builder) Value(model Assignment, name string) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if id, ok := b.varIDs[name]; ok {
		return model[id] & mask(b.varWidth[id])
	}
	return 0
}
