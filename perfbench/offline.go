package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/solver"
	"repro/internal/trace"
)

// noClock lifts the symbolic phase's clock budget far beyond any run, so a
// profile ends on MaxIters, MaxPaths or convergence and its work is fixed.
const noClock = time.Hour

// offlineSpec is one ProbProf call of an offline workload.
type offlineSpec struct {
	program string
	uniform bool // uniform header space instead of the seeded trace oracle
	opt     core.Options
	// explores marks a profile expected to stop iteration 0 on MaxPaths and
	// fall back to sampling; otherwise it must run MaxIters iterations or
	// converge.
	explores bool
}

// countBoundSpecs: model counting is the whole cost. Depths are chosen so a
// pass (both profiles) takes a few seconds on two cores.
func countBoundSpecs(seed int64) []offlineSpec {
	quick := eval.Quick().ProfileOptions()
	quick.Seed = seed
	quick.Timeout = noClock
	nw, blink := quick, quick
	nw.MaxIters = 4
	blink.MaxIters = 6
	return []offlineSpec{
		{program: "NetWarden (S11)", opt: nw},
		{program: "Blink (S5)", opt: blink},
	}
}

// exploreBoundSpecs: symbolic exploration of the largest stateless program
// until the path budget; no model counting at all.
func exploreBoundSpecs(seed int64) []offlineSpec {
	opt := eval.Quick().ProfileOptions()
	opt.Seed = seed
	opt.Timeout = noClock
	opt.MaxPaths = 50000
	return []offlineSpec{{program: "switch.p4", uniform: true, opt: opt, explores: true}}
}

func runCountBound(cfg runConfig) (*outcome, error) {
	return runOffline(cfg, countBoundSpecs(cfg.seed))
}

func runExploreBound(cfg runConfig) (*outcome, error) {
	return runOffline(cfg, exploreBoundSpecs(cfg.seed))
}

// offlineInput is a spec's set-up product: a freshly built program and a
// fresh oracle (the trace query processor caches answers, so reusing one
// across passes would shrink later passes' work).
type offlineInput struct {
	prog   *ir.Program
	oracle dist.Oracle
}

// setup builds every spec's program and oracle, returning the total set-up
// seconds and the part spent generating traces and building oracles.
func setup(specs []offlineSpec, seed int64) ([]offlineInput, float64, float64, error) {
	start := time.Now()
	var oracleSec float64
	ins := make([]offlineInput, len(specs))
	for i, s := range specs {
		m, ok := programs.ByName(s.program)
		if !ok {
			return nil, 0, 0, fmt.Errorf("unknown program %q", s.program)
		}
		ins[i].prog = m.Build()
		if !s.uniform {
			t0 := time.Now()
			ins[i].oracle = trace.NewQueryProcessor(trace.Generate(m.Workload(seed)))
			oracleSec += time.Since(t0).Seconds()
		}
	}
	return ins, time.Since(start).Seconds(), oracleSec, nil
}

// minSetupBatch is the least time one set-up sample spans. A set-up far
// shorter than that (switch.p4 builds in about 50 µs) is repeated and
// averaged, so timer and scheduling jitter do not swamp the sample.
const minSetupBatch = 5 * time.Millisecond

// setupSample collects garbage, so every sample starts from the same heap
// state, then runs setup until minSetupBatch has passed. It returns the
// last inputs and the mean total and oracle seconds per set-up.
func setupSample(specs []offlineSpec, seed int64) ([]offlineInput, float64, float64, error) {
	runtime.GC()
	var ins []offlineInput
	var total, oracle float64
	n := 0
	for n == 0 || total < minSetupBatch.Seconds() {
		var s, o float64
		var err error
		if ins, s, o, err = setup(specs, seed); err != nil {
			return nil, 0, 0, err
		}
		total, oracle, n = total+s, oracle+o, n+1
	}
	return ins, total / float64(n), oracle / float64(n), nil
}

// profileCounts are the work counts a profile reports; with the clock
// lifted they must repeat exactly on every run of the same spec.
type profileCounts struct {
	pathsExplored, forks, mcQueries, mcFallbacks int
}

func countsOf(pf *core.Profile) profileCounts {
	return profileCounts{
		pathsExplored: pf.Stats.Engine.PathsExplored,
		forks:         pf.Stats.Engine.Forks,
		mcQueries:     pf.Stats.Counter.Queries,
		mcFallbacks:   pf.Stats.Counter.MCFallbacks,
	}
}

// digestOf renders the profile table plus every block's probability at
// full precision: Profile.String rounds to three digits, which hides a
// changed Monte-Carlo estimate.
func digestOf(pf *core.Profile) string {
	var b strings.Builder
	b.WriteString(pf.String())
	for _, n := range pf.Nodes {
		fmt.Fprintf(&b, "%d %s log10P=%.17g\n", n.ID, n.Source, n.P.Log10())
	}
	return b.String()
}

// reference is the first run of a spec; later runs must match it.
type reference struct {
	digest string
	counts profileCounts
}

// clockedTime is the part of a profile the Timeout budget bounds: the main
// loop's exploration, counting and merging. A profile whose clockedTime
// reaches Timeout may have ended on the clock.
func clockedTime(st core.Stats) time.Duration {
	return st.SymTime + st.UpdateProbTime + st.MergeTime
}

// checkProfile returns every output check the profile fails.
func checkProfile(s offlineSpec, pf *core.Profile, ref *reference) []string {
	var bad []string
	st := pf.Stats
	if d := clockedTime(st); d >= s.opt.Timeout {
		bad = append(bad, fmt.Sprintf("symbolic phase ran %s, into its clock budget", d))
	}
	if s.explores {
		if st.Iterations != 0 || pf.Converged {
			bad = append(bad, fmt.Sprintf("expected iteration 0 to stop on MaxPaths, got %d iterations (converged=%v)", st.Iterations, pf.Converged))
		}
		if st.Counter.Queries != 0 {
			bad = append(bad, fmt.Sprintf("expected no model-counting queries, got %d", st.Counter.Queries))
		}
	} else if st.Iterations != s.opt.MaxIters && !pf.Converged {
		bad = append(bad, fmt.Sprintf("stopped after %d of %d iterations without converging", st.Iterations, s.opt.MaxIters))
	}
	for _, n := range pf.Nodes {
		if p := n.P.Float(); math.IsNaN(p) || p < 0 || p > 1 {
			bad = append(bad, fmt.Sprintf("block %q has P=%v outside [0,1]", n.Label, p))
		}
	}
	digest, counts := digestOf(pf), countsOf(pf)
	if ref.digest == "" {
		ref.digest, ref.counts = digest, counts
	} else {
		if digest != ref.digest {
			bad = append(bad, "profile differs from the first run of the same spec")
		}
		if counts != ref.counts {
			bad = append(bad, fmt.Sprintf("counts %+v differ from the first run's %+v", counts, ref.counts))
		}
	}
	return bad
}

// passLayers accumulates one pass's per-layer values.
type passLayers struct {
	vals               map[string]float64
	poolBusy, poolWall float64
}

// layerCounts are the run-report metrics a pass sums per layer.
var layerCounts = []string{
	"mc.queries", "mc.cache_hits", "mc.exact_classes", "mc.exact_pairs", "mc.mc_fallbacks",
	"sym.forks", "sym.paths_explored", "sym.feasibility_chks", "sym.pruned_paths", "sym.merges",
	"pool.tasks", "core.oracle_queries",
}

// add folds in one profile's stage seconds and flat metrics, in the form
// both Profile.Stats and a stored run report carry them.
func (p *passLayers) add(stages, metrics map[string]float64) {
	for k, v := range stages {
		p.vals["core.stage."+k+"_s"] += v
	}
	for _, k := range layerCounts {
		p.vals[k] += metrics[k]
	}
	wall := metrics["pool.wall_sec"] * metrics["pool.workers"]
	p.poolWall += wall
	p.poolBusy += metrics["pool.utilization"] * wall
}

// finish derives the ratios once the pass's sums are in.
func (p *passLayers) finish() {
	v := p.vals
	v["mc.cache_hit_rate"] = ratioOr0(v["mc.cache_hits"], v["mc.queries"])
	v["mc.fallback_ratio"] = ratioOr0(v["mc.mc_fallbacks"], v["mc.queries"])
	v["pool.utilization"] = ratioOr0(p.poolBusy, p.poolWall)
	delete(v, "mc.cache_hits")
}

func ratioOr0(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// solverDelta is the process-wide solver counters' growth since before.
func solverDelta(before map[string]float64) map[string]float64 {
	after := solver.MetricsView()
	return map[string]float64{
		"solver.builds":   after["builds"] - before["builds"],
		"solver.feasible": after["feasible"] - before["feasible"],
		"solver.solves":   after["solves"] - before["solves"],
	}
}

// zeroLayers starts a per-layer map with every metric at 0: a workload
// that does not exercise a layer reports it as no work.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// medianInto sets each key of into to the median of that key across runs.
func medianInto(into map[string]float64, runs []map[string]float64) {
	keys := map[string]bool{}
	for _, r := range runs {
		for k := range r {
			keys[k] = true
		}
	}
	for k := range keys {
		xs := make([]float64, 0, len(runs))
		for _, r := range runs {
			xs = append(xs, r[k])
		}
		into[k] = median(xs)
	}
}

const extraSetups = 50

func runOffline(cfg runConfig, specs []offlineSpec) (*outcome, error) {
	var chk checker
	refs := make([]reference, len(specs))
	var setupSec, oracleSec []float64
	for i := 0; i < extraSetups; i++ {
		_, s, o, err := setupSample(specs, cfg.seed)
		if err != nil {
			return nil, err
		}
		setupSec, oracleSec = append(setupSec, s), append(oracleSec, o)
	}

	// One profile pass over every spec. Set-up runs before the pass clock
	// starts; each profile is checked against the first run of its spec.
	var walls, peaks []float64
	var layers []map[string]float64
	// tr, when set, traces the pass; workers > 0 overrides the profiles'
	// worker count.
	pass := func(measured bool, tr *obs.Tracer, workers int) (float64, error) {
		ins, s, o, err := setupSample(specs, cfg.seed)
		if err != nil {
			return 0, err
		}
		setupSec, oracleSec = append(setupSec, s), append(oracleSec, o)
		runtime.GC()
		pl := passLayers{vals: map[string]float64{}}
		goBefore, solverBefore := readGoCounters(), solver.MetricsView()
		heap := startHeapSampler()
		start := time.Now()
		var profiles []*core.Profile
		for i, sp := range specs {
			opt := sp.opt
			if workers > 0 {
				opt.Workers = workers
			}
			// In a traced pass the benchmark's own span around the public
			// call is the root the program's spans parent under.
			var span obs.Span
			if tr != nil {
				opt.Tracer = tr
				opt.Context, span = tr.StartSpanCtx(context.Background(), "bench.probprof")
			}
			pf, err := core.ProbProf(ins[i].prog, ins[i].oracle, opt)
			span.End()
			if err != nil {
				chk.op(sp.program, []string{err.Error()})
				continue
			}
			profiles = append(profiles, pf)
			chk.op(sp.program, checkProfile(sp, pf, &refs[i]))
		}
		wall := time.Since(start).Seconds()
		// A collection now marks what the pass still holds at its end, which
		// the sampler would otherwise see only if a cycle happened to finish
		// after the last allocation.
		runtime.GC()
		peak := heap.Stop()
		if measured {
			for _, pf := range profiles {
				pl.add(pf.Stats.Stages(), pf.Stats.Metrics())
			}
			pl.finish()
			for k, v := range goCountersSince(goBefore).layer() {
				pl.vals[k] = v
			}
			for k, v := range solverDelta(solverBefore) {
				pl.vals[k] = v
			}
			walls, peaks = append(walls, wall), append(peaks, peak)
			layers = append(layers, pl.vals)
		}
		return wall, nil
	}

	// Warm-up pass: fills lazily built runtime state and pins the reference
	// digests and counts; it is checked but not timed into the medians.
	if _, err := pass(false, nil, 0); err != nil {
		return nil, err
	}
	passes, err := window(cfg, func() error { _, err := pass(true, nil, 0); return err })
	if err != nil {
		return nil, err
	}
	totalWall := 0.0
	for _, w := range walls {
		totalWall += w
	}
	out := &outcome{
		e2e: map[string]float64{
			"wall_s":       median(walls),
			"setup_s":      median(setupSec),
			"peak_heap_mb": median(peaks),
			"jobs_per_s":   float64(passes*len(specs)) / totalWall,
		},
		layer: zeroLayers(),
	}
	medianInto(out.layer, layers)
	out.layer["oracle.setup_s"] = median(oracleSec)
	out.info = append(out.info, fmt.Sprintf("passes %d, profiles per pass %d, pass walls %s", passes, len(specs), fmtSecs(walls)))

	if cfg.trace {
		// Traced pass: the program's own tracer through Options.Tracer.
		tr := obs.NewTracer(nil)
		tracedWall, err := pass(false, tr, 0)
		if err != nil {
			return nil, err
		}
		if d := tr.DroppedSpans(); d > 0 {
			chk.op("traced pass", []string{fmt.Sprintf("%d spans dropped past the tracer's record cap", d)})
		}
		self := map[string]float64{}
		spanSelfTimes(tr.Spans(), self)
		for name, v := range self {
			out.layer["span."+name+".self_s"] = v
		}
		out.layer["trace.overhead_ratio"] = tracedWall/median(walls) - 1
		// Worker-count independence: a one-worker profile must equal the
		// reference digests exactly.
		if _, err := pass(false, nil, 1); err != nil {
			return nil, err
		}
	}
	out.attempted, out.failed = chk.attempted, chk.failed
	return out, nil
}

func goCountersSince(before goCounters) goCounters { return readGoCounters().sub(before) }

func fmtSecs(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s + "]"
}
