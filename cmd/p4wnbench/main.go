// Command p4wnbench regenerates the paper's tables and figures and prints
// them as text, optionally writing each to a file.
//
//	p4wnbench -exp all -scale quick
//	p4wnbench -exp fig6a,fig10 -scale default -outdir results/
//	p4wnbench -exp all -scale quick -report bench.json
//
// With -report, a versioned JSON bench report (per-experiment wall times and
// statuses) is written atomically — the artifact CI uploads as
// BENCH_<date>.json to track performance trajectories across revisions.
//
// -workers sets the profiler's degree of parallelism for every experiment
// (0 = GOMAXPROCS). -workers-sweep replaces the experiment list with a
// scaling sweep: each sweep program is profiled at 1, 2, 4, and GOMAXPROCS
// workers, one report row per (program, worker count), so BENCH_*.json
// records the scaling curve. The sweep also asserts that every worker
// count renders a byte-identical profile to workers=1 — a mismatch fails
// the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	p4wn "repro"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/p4c"
	"repro/internal/target"
)

type experiment struct {
	name string
	run  func(eval.Config) (fmt.Stringer, error)
}

func wrap[T fmt.Stringer](f func(eval.Config) (T, error)) func(eval.Config) (fmt.Stringer, error) {
	return func(c eval.Config) (fmt.Stringer, error) { return f(c) }
}

var experiments = []experiment{
	{"table1", wrap(eval.Table1)},
	{"fig6a", wrap(eval.Figure6a)},
	{"fig6b", wrap(eval.Figure6b)},
	{"fig6c", wrap(eval.Figure6c)},
	{"fig6d", wrap(eval.Figure6d)},
	{"fig6e", wrap(eval.Figure6e)},
	{"fig6f", wrap(eval.Figure6f)},
	{"fig7", wrap(eval.Figure7)},
	{"fig8", wrap(eval.Figure8)},
	{"fig9", wrap(eval.Figure9)},
	{"fig10", wrap(eval.Figure10)},
	{"fig11", wrap(eval.Figure11)},
	{"fig12", wrap(eval.Figure12)},
	{"fig13", wrap(eval.Figure13)},
	{"accuracy", wrap(eval.AccuracyVsExhaustive)},
	{"offload", wrap(eval.OffloadCaseStudy)},
	{"ablations", wrap(eval.Ablations)},
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiments, or 'all'")
	scale := flag.String("scale", "quick", "quick | default | full")
	outdir := flag.String("outdir", "", "write each experiment's output to <outdir>/<name>.txt")
	seed := flag.Int64("seed", 1, "random seed")
	reportPath := flag.String("report", "", "write the JSON bench report to this path")
	workers := flag.Int("workers", 0, "profiler parallelism for every experiment (0 = GOMAXPROCS)")
	targetName := flag.String("target", "", "device model every experiment runs against (idealized, tofino, ebpf)")
	workersSweep := flag.Bool("workers-sweep", false, "run the worker-scaling sweep instead of the experiment list")
	flag.Parse()

	cfg, ok := eval.Preset(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "p4wnbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	if _, err := target.Lookup(*targetName); err != nil {
		fmt.Fprintf(os.Stderr, "p4wnbench: %v\n", err)
		os.Exit(2)
	}
	cfg.Target = *targetName

	if *workersSweep {
		os.Exit(runWorkersSweep(cfg, *scale, *seed, *reportPath))
	}

	want := map[string]bool{}
	if *expFlag != "all" {
		for _, n := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}

	rep := obs.NewBenchReport(*scale, *seed, cfg.Target)
	benchStart := time.Now()
	failed := 0
	for _, e := range experiments {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		start := time.Now()
		res, err := e.run(cfg)
		elapsed := time.Since(start)
		er := obs.ExperimentResult{Name: e.name, Seconds: elapsed.Seconds(), OK: err == nil}
		if err != nil {
			er.Error = err.Error()
			rep.Experiments = append(rep.Experiments, er)
			fmt.Fprintf(os.Stderr, "p4wnbench: %s failed: %v\n", e.name, err)
			failed++
			continue
		}
		rep.Experiments = append(rep.Experiments, er)
		text := res.String()
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", e.name, elapsed.Seconds(), text)
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "p4wnbench:", err)
				os.Exit(1)
			}
			path := filepath.Join(*outdir, e.name+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "p4wnbench:", err)
				os.Exit(1)
			}
		}
	}
	rep.Metrics = map[string]float64{
		"wall_sec":    time.Since(benchStart).Seconds(),
		"experiments": float64(len(rep.Experiments)),
		"failed":      float64(failed),
	}
	fmt.Print(rep.Summary())
	if *reportPath != "" {
		rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		if err := obs.WriteJSONAtomic(*reportPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "p4wnbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote bench report to %s\n", *reportPath)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// sweepProgram is one subject of the worker-scaling sweep: a zoo system or
// a mini-language source file from examples/programs/. The oracle is a
// factory, not an instance — each (program, worker count) run gets a fresh
// oracle so no run inherits a warm query cache from the previous count.
type sweepProgram struct {
	name   string
	prog   *p4wn.Program
	oracle func() p4wn.Oracle
}

// sweepPrograms assembles the sweep subjects: the first two zoo systems of
// the evaluation plus every example program shipped in examples/programs/.
func sweepPrograms(seed int64) []sweepProgram {
	var out []sweepProgram
	zoo := eval.S1toS11()
	if len(zoo) > 2 {
		zoo = zoo[:2]
	}
	for _, m := range zoo {
		m := m
		out = append(out, sweepProgram{
			name: m.Name,
			prog: m.Build(),
			oracle: func() p4wn.Oracle {
				return p4wn.TraceOracle(p4wn.GenerateTraffic(m.Workload(seed)))
			},
		})
	}
	files, _ := filepath.Glob(filepath.Join("examples", "programs", "*.p4w"))
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		prog, err := p4c.Parse(string(src))
		if err != nil {
			continue
		}
		out = append(out, sweepProgram{
			name: strings.TrimSuffix(filepath.Base(f), ".p4w"),
			prog: prog,
			oracle: func() p4wn.Oracle {
				return p4wn.TraceOracle(p4wn.GenerateTraffic(p4wn.TrafficOptions{Seed: seed}))
			},
		})
	}
	return out
}

// sweepCounts returns the worker counts to measure: 1, 2, 4, GOMAXPROCS,
// deduplicated and sorted (on a 2-core box that is 1, 2, 4).
func sweepCounts() []int {
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	sort.Ints(counts)
	out := counts[:1]
	for _, c := range counts[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// runWorkersSweep profiles each sweep program once per worker count,
// emitting one bench-report row per (program, count) and checking that the
// rendered profile is byte-identical to the workers=1 run. Returns the
// process exit code.
func runWorkersSweep(cfg eval.Config, scale string, seed int64, reportPath string) int {
	rep := obs.NewBenchReport(scale+"/workers-sweep", seed, cfg.Target)
	rep.Metrics = map[string]float64{"gomaxprocs": float64(runtime.GOMAXPROCS(0))}
	benchStart := time.Now()
	counts := sweepCounts()
	failed := 0
	for _, sp := range sweepPrograms(seed) {
		var refText string
		var base float64
		for _, w := range counts {
			opt := p4wn.ProfileOptions{
				Seed:         seed,
				Timeout:      cfg.ProfileTimeout,
				SampleBudget: cfg.SampleBudget,
				MaxIters:     cfg.ProfileMaxIters,
				Workers:      w,
				Target:       cfg.Target,
			}
			oracle := sp.oracle()
			start := time.Now()
			prof, err := p4wn.Profile(sp.prog, oracle, opt)
			elapsed := time.Since(start)
			er := obs.ExperimentResult{
				Name:    fmt.Sprintf("workers/%s/w%d", sp.name, w),
				Seconds: elapsed.Seconds(),
				OK:      err == nil,
			}
			switch {
			case err != nil:
				er.Error = err.Error()
			case w == counts[0]:
				refText = prof.String()
				base = elapsed.Seconds()
			case prof.String() != refText:
				er.OK = false
				er.Error = fmt.Sprintf("profile output differs from workers=%d", counts[0])
			}
			if !er.OK {
				fmt.Fprintf(os.Stderr, "p4wnbench: %s failed: %s\n", er.Name, er.Error)
				failed++
			} else if base > 0 && elapsed.Seconds() > 0 {
				rep.Metrics[fmt.Sprintf("speedup_%s_w%d", sp.name, w)] = base / elapsed.Seconds()
			}
			rep.Experiments = append(rep.Experiments, er)
			fmt.Printf("workers/%-24s w=%d  %.2fs  ok=%v\n", sp.name, w, elapsed.Seconds(), er.OK)
		}
	}
	rep.Metrics["wall_sec"] = time.Since(benchStart).Seconds()
	rep.Metrics["failed"] = float64(failed)
	fmt.Print(rep.Summary())
	if reportPath != "" {
		rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		if err := obs.WriteJSONAtomic(reportPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "p4wnbench:", err)
			return 1
		}
		fmt.Printf("wrote bench report to %s\n", reportPath)
	}
	if failed > 0 {
		return 1
	}
	return 0
}
