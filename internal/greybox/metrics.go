package greybox

import "sync/atomic"

// Process-wide greybox instrumentation. Store objects are cloned per
// symbolic path, so per-instance counters would vanish with their clones;
// like the solver's, these counters are package-level atomics exposed
// through MetricsView.

var metrics struct {
	hashAccesses   atomic.Int64
	bloomQueries   atomic.Int64
	bloomInserts   atomic.Int64
	sketchUpdates  atomic.Int64
	sketchEstimate atomic.Int64
}

// MetricsView snapshots the package counters; the run report publishes
// them under the "greybox." prefix.
func MetricsView() map[string]float64 {
	return map[string]float64{
		"hash_accesses":    float64(metrics.hashAccesses.Load()),
		"bloom_queries":    float64(metrics.bloomQueries.Load()),
		"bloom_inserts":    float64(metrics.bloomInserts.Load()),
		"sketch_updates":   float64(metrics.sketchUpdates.Load()),
		"sketch_estimates": float64(metrics.sketchEstimate.Load()),
	}
}
