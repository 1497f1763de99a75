package smt

import (
	"time"

	"rvcte/internal/obs"
)

// Stats accumulates query statistics, mirroring the "stime" and "#queries"
// columns of the paper's Table 1 and Table 2.
type Stats struct {
	Queries    int           // number of Check calls
	SolverTime time.Duration // total wall time spent inside Check
	Conflicts  int           // SAT conflicts across all queries
	SatVars    int           // SAT variables allocated
	SatProps   int64         // unit propagations
}

// Solver answers satisfiability queries over expressions from one Builder.
// Blasted CNF structure is retained between queries; assertions are passed
// as SAT assumptions, so the common concolic pattern — many queries that
// share a long path-condition prefix — is incremental.
type Solver struct {
	bld   *Builder
	sat   *Sat
	bl    *blaster
	Stats Stats

	// MaxConflictsPerQuery bounds each query; 0 means unlimited. When a
	// query exceeds the budget Check returns unknown=true.
	MaxConflictsPerQuery int

	// Observability handles (SetObs). All are nil-safe: an unwired
	// solver pays one nil test per query.
	obsQueries *obs.Counter
	obsSat     *obs.Counter
	obsUnsat   *obs.Counter
	obsUnknown *obs.Counter
	obsTimeNS  *obs.Counter
	obsLatency *obs.Histogram
	tracer     *obs.Tracer
}

// SetObs wires the solver into an observability bundle: per-query
// counters under "smt.*", a query-latency histogram (microseconds), and
// per-query trace events when o carries a tracer. Safe with a nil o.
func (s *Solver) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	m := o.Registry()
	s.obsQueries = m.Counter("smt.queries")
	s.obsSat = m.Counter("smt.sat")
	s.obsUnsat = m.Counter("smt.unsat")
	s.obsUnknown = m.Counter("smt.unknown")
	s.obsTimeNS = m.Counter("smt.solver_ns")
	s.obsLatency = m.Histogram("smt.query_us", obs.LatencyBoundsUS)
	s.tracer = o.Trace()
}

// NewSolver creates a solver bound to the builder b.
func NewSolver(b *Builder) *Solver {
	sat := NewSat()
	return &Solver{bld: b, sat: sat, bl: newBlaster(b, sat)}
}

// Check determines whether the conjunction of conds is satisfiable. Each
// cond must have width 1. On sat, model assigns every variable blasted so
// far (variables not constrained get zero). unknown reports budget
// exhaustion (callers treat it as unsat-for-now during exploration).
func (s *Solver) Check(conds ...*Expr) (sat bool, model Assignment, unknown bool) {
	start := time.Now()
	defer func() {
		dur := time.Since(start)
		s.Stats.Queries++
		s.Stats.SolverTime += dur
		s.Stats.Conflicts = s.sat.Conflict
		s.Stats.SatVars = s.sat.NumVars()
		s.Stats.SatProps = s.sat.Props
		s.obsQueries.Inc()
		s.obsTimeNS.Add(int64(dur))
		s.obsLatency.ObserveDuration(dur)
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

	assumptions := make([]Lit, 0, len(conds))
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
		assumptions = append(assumptions, s.bl.blastBool(c))
	}
	s.sat.Budget = s.MaxConflictsPerQuery
	res := s.sat.solveKeep(assumptions...)
	if res != SatResult {
		s.sat.cancelUntil(0)
		if res == Unknown {
			return false, nil, true
		}
		return false, nil, false
	}
	model = Assignment{}
	for id, bits := range s.bl.varBits {
		var v uint64
		for i, l := range bits {
			bv := s.sat.ModelValue(l.Var())
			if l.Neg() {
				bv = !bv
			}
			if bv {
				v |= 1 << i
			}
		}
		model[id] = v
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
