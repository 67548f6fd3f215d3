package solver

import "sync/atomic"

// metrics are process-wide instrumentation counters for the solver. The
// solver's entry points are stateless package functions, so unlike the
// engine/counter stats there is no per-run object to hang counts off;
// atomic package counters keep the hot path allocation-free, and
// MetricsView exposes them.
var metrics struct {
	builds     atomic.Int64 // constraint-system normalizations
	feasible   atomic.Int64 // propagation-only satisfiability checks
	solves     atomic.Int64 // witness searches
	solveSat   atomic.Int64 // searches that found a witness
	solveUnsat atomic.Int64 // searches that reported unsat
}

// MetricsView snapshots the solver counters; the run report publishes
// them under the "solver." prefix. Counts are cumulative for the process.
func MetricsView() map[string]float64 {
	return map[string]float64{
		"builds":      float64(metrics.builds.Load()),
		"feasible":    float64(metrics.feasible.Load()),
		"solves":      float64(metrics.solves.Load()),
		"solve_sat":   float64(metrics.solveSat.Load()),
		"solve_unsat": float64(metrics.solveUnsat.Load()),
	}
}
