// Command perfbench is P4wn's work-bound benchmark. Each workload repeats a
// fixed amount of work (bounded by iterations, paths or job count, never by
// the clock) for a measured window and reports medians:
//
//	count-bound    fixed-depth ProbProf of NetWarden and Blink on trace oracles
//	explore-bound  ProbProf of switch.p4 until its path budget, uniform oracle
//	serve-mix      an in-process serve.Server driven over loopback HTTP by a
//	               closed loop of two clients, profile and adversarial jobs
//
// It times only calls into public functions, reads the counters those calls
// already return, and checks every output. With -trace 1 it also runs one
// traced pass and prints the per-layer split. Run it from the repository
// root through perfbench/run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload count-bound --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef documents one reported metric: its unit, which way is better,
// and (for per-layer metrics) the end-to-end metric and workload it should
// move.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them on an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", "seconds for one pass of the workload's fixed work (median over passes)"},
	{"setup_s", "s", "lower", "program build, trace generation and oracle, or server start and empty store (median)"},
	{"peak_heap_mb", "MB", "lower", "peak live heap (as last marked by the GC) during a pass (median over passes)"},
	{"jobs_per_s", "1/s", "higher", "profile calls or served jobs completed per measured second"},
}

// perLayer are the single-layer metrics a traced run (-trace 1) reports,
// each with the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"core.stage.updateprob_s", "s", "lower", "wall_s on count-bound"},
	{"mc.queries", "count", "lower", "wall_s on count-bound; 0 on explore-bound"},
	{"mc.cache_hit_rate", "ratio", "higher", "wall_s on count-bound"},
	{"mc.exact_classes", "count", "higher", "wall_s on count-bound"},
	{"mc.exact_pairs", "count", "higher", "wall_s on count-bound"},
	{"mc.mc_fallbacks", "count", "lower", "wall_s on count-bound"},
	{"mc.fallback_ratio", "ratio", "lower", "wall_s on count-bound"},
	{"core.stage.sym_s", "s", "lower", "wall_s on explore-bound; under 4% of count-bound"},
	{"sym.forks", "count", "lower", "wall_s on explore-bound"},
	{"sym.paths_explored", "count", "lower", "wall_s on explore-bound"},
	{"sym.feasibility_chks", "count", "lower", "wall_s on explore-bound"},
	{"sym.pruned_paths", "count", "higher", "wall_s on explore-bound"},
	{"sym.merges", "count", "higher", "wall_s on explore-bound"},
	{"solver.builds", "count", "lower", "wall_s on explore-bound"},
	{"solver.feasible", "count", "lower", "wall_s on explore-bound"},
	{"solver.solves", "count", "lower", "wall_s on explore-bound"},
	{"go.alloc_mb", "MB", "lower", "wall_s and peak_heap_mb on count-bound and explore-bound"},
	{"go.alloc_objects", "count", "lower", "wall_s and peak_heap_mb on count-bound and explore-bound"},
	{"go.gc_cycles", "count", "lower", "wall_s and peak_heap_mb on count-bound and explore-bound"},
	{"go.gc_pause_s", "s", "lower", "wall_s and peak_heap_mb on count-bound and explore-bound"},
	{"pool.utilization", "ratio", "higher", "wall_s on count-bound (NodeProbsPool fan-out)"},
	{"pool.tasks", "count", "higher", "wall_s on count-bound; inline iteration 0 on explore-bound"},
	{"core.stage.telescope_s", "s", "lower", "miss_latency on serve-mix"},
	{"core.stage.merge_s", "s", "lower", "miss_latency on serve-mix"},
	{"core.stage.sample_s", "s", "lower", "miss_latency on serve-mix"},
	{"core.stage.analysis_s", "s", "lower", "miss_latency on serve-mix"},
	{"core.stage.finalize_s", "s", "lower", "miss_latency on serve-mix"},
	{"core.oracle_queries", "count", "lower", "miss_latency on serve-mix"},
	{"testgen.symbex_s", "s", "lower", "miss_latency on serve-mix"},
	{"testgen.solver_s", "s", "lower", "miss_latency on serve-mix"},
	{"testgen.havoc_s", "s", "lower", "miss_latency on serve-mix"},
	{"testgen.validated_ratio", "ratio", "higher", "miss_latency on serve-mix"},
	{"serve.submit_s", "s", "lower", "jobs_per_s and hit/miss latency on serve-mix"},
	{"serve.queue_wait_s", "s", "lower", "jobs_per_s and miss latency on serve-mix"},
	{"serve.run_s", "s", "lower", "jobs_per_s and miss latency on serve-mix"},
	{"serve.result_s", "s", "lower", "jobs_per_s and hit latency on serve-mix"},
	{"serve.overhead_s", "s", "lower", "jobs_per_s and miss latency on serve-mix"},
	{"serve.store_hit_ratio", "ratio", "higher", "jobs_per_s on serve-mix (fixed by the mix)"},
	{"serve.hit_latency_p50_s", "s", "lower", "jobs_per_s on serve-mix"},
	{"serve.miss_latency_p50_s", "s", "lower", "jobs_per_s on serve-mix"},
	{"serve.miss_latency_p90_s", "s", "lower", "jobs_per_s on serve-mix"},
	{"oracle.setup_s", "s", "lower", "setup_s on count-bound and serve-mix"},
	{"span.bench.probprof.self_s", "s", "lower", "wall_s on count-bound and explore-bound (call overhead)"},
	{"span.probprof.self_s", "s", "lower", "wall_s on count-bound and explore-bound"},
	{"span.analysis.self_s", "s", "lower", "wall_s on all workloads"},
	{"span.telescope.self_s", "s", "lower", "wall_s on count-bound; miss latency on serve-mix"},
	{"span.iter.self_s", "s", "lower", "wall_s on count-bound and explore-bound"},
	{"span.sample.self_s", "s", "lower", "miss latency on serve-mix"},
	{"span.pool.batch.self_s", "s", "lower", "wall_s on count-bound"},
	{"span.job.self_s", "s", "lower", "miss latency on serve-mix"},
	{"span.queued.self_s", "s", "lower", "miss latency on serve-mix"},
	{"span.run.self_s", "s", "lower", "miss latency on serve-mix"},
	{"span.persist.self_s", "s", "lower", "miss latency on serve-mix"},
	{"span.bench.submit.self_s", "s", "lower", "hit and miss latency on serve-mix"},
	{"span.bench.wait.self_s", "s", "lower", "miss latency on serve-mix"},
	{"span.bench.result.self_s", "s", "lower", "hit and miss latency on serve-mix"},
	{"trace.overhead_ratio", "ratio", "lower", "traced pass wall over untraced wall_s, minus 1"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// outcome collects what one run measured and checked.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	// info are extra human-readable lines printed before the result.
	info []string
}

// checker counts operations and the ones that failed any output check.
type checker struct {
	attempted, failed int
}

// op records one operation; problems lists every failed check (empty when
// the operation's outputs are correct). Problems go to standard error.
func (c *checker) op(what string, problems []string) {
	c.attempted++
	if len(problems) == 0 {
		return
	}
	c.failed++
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %s\n", what, p)
	}
}

var workloadOrder = []string{"count-bound", "explore-bound", "serve-mix"}

var workloads = map[string]func(runConfig) (*outcome, error){
	"count-bound":   runCountBound,
	"explore-bound": runExploreBound,
	"serve-mix":     runServeMix,
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "count-bound, explore-bound, serve-mix, or all three in turn")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured window in seconds (whole passes; at least three)")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds a traced pass and reports per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadOrder
	}
	_, known := workloads[names[0]]
	if !known || flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload count-bound|explore-bound|serve-mix|all --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// "all" runs every workload in turn, each printing its own report; the
	// single-workload form is the one whose last line is the result.
	for _, name := range names {
		cfg.workload = name
		out, err := workloads[name](cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := report(os.Stdout, cfg, out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human-readable table, then the JSON result line.
func report(w *os.File, cfg runConfig, out *outcome) error {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d %s/%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
	for _, l := range out.info {
		fmt.Fprintln(w, l)
	}
	ratio := 0.0
	if out.attempted > 0 {
		ratio = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "%-28s %14.6g %-6s (%d of %d operations)\n", "failed_ratio", ratio, "ratio", out.failed, out.attempted)
	defs, vals := endToEnd, out.e2e
	if cfg.trace {
		defs, vals = perLayer, out.layer
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(w, "%-28s %14.6g %-6s %-6s %s\n", d.name, v, d.unit, d.better, d.moves)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// window runs pass repeatedly for the measured window: whole passes until
// cfg.seconds have elapsed, and never fewer than minPasses, so every
// reported median has at least three samples. It returns the pass count.
const minPasses = 3

func window(cfg runConfig, pass func() error) (int, error) {
	start := time.Now()
	passes := 0
	for passes < minPasses || time.Since(start).Seconds() < cfg.seconds {
		if err := pass(); err != nil {
			return passes, err
		}
		passes++
	}
	return passes, nil
}
