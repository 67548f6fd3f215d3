package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/trace"
)

// Serve-mix shape. Two closed-loop clients each submit every spec of their
// own pool once (the misses) plus two thirds as many repeats of their own
// earlier specs (the store hits, 40% of submissions). The pool's make-up is
// fixed, so the seed changes the order, the repeated specs and the option
// seeds, never how much engine work a pass holds. The server runs at most
// two engine goroutines: two job workers, each profiling with one worker.
const (
	mixClients  = 2
	jobWorkers  = 2
	profWorkers = 1
	specSeeds   = 2 // option seeds per client; no two clients share a spec
)

// mixExcluded are zoo programs left out of the profile jobs: at quick scale
// switch.p4 and NetWarden end on the 5 s clock, and Blink's trace-oracle
// profile alone costs more than the rest of a pass; all three are measured
// by the offline workloads.
var mixExcluded = map[string]bool{"switch.p4": true, "NetWarden (S11)": true, "Blink (S5)": true}

// mixJob is one submission of the seeded sequence.
type mixJob struct {
	spec   serve.JobSpec
	repeat bool // an earlier job of the same client submitted this spec
}

// clientPool is client c's distinct specs: every cheap zoo program in
// trace-oracle and uniform form, and every adversarial case, once per
// option seed.
func clientPool(seed int64, c int) []serve.JobSpec {
	var pool []serve.JobSpec
	for k := 0; k < specSeeds; k++ {
		s := seed*100 + int64(c*specSeeds+k) + 1
		quick := eval.Quick().ProfileOptions()
		quick.Seed = s
		for _, m := range programs.All() {
			if mixExcluded[m.Name] {
				continue
			}
			for _, uniform := range []bool{false, true} {
				pool = append(pool, serve.JobSpec{Program: m.Name, Uniform: uniform, Options: core.WireFromOptions(quick)})
			}
		}
		for _, ac := range eval.AdvCases() {
			m, _ := programs.SID(ac.SystemID)
			pool = append(pool, serve.JobSpec{Kind: serve.KindAdversarial, Program: m.Name, Target: ac.Label, Options: core.WireOptions{Seed: s}})
		}
	}
	return pool
}

// mixSequence builds each client's job sequence from the seed. Clients
// never share a spec, so a repeat is always answered from the store: the
// client's own earlier submission finished before the closed loop sent the
// next job.
func mixSequence(seed int64) [][]mixJob {
	rng := rand.New(rand.NewSource(seed))
	seqs := make([][]mixJob, mixClients)
	for c := range seqs {
		pool := clientPool(seed, c)
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		// Slot kinds: the first submission is fresh, the rest a shuffled
		// mix of the remaining fresh specs and the repeats.
		repeats := len(pool) * 2 / 3
		slots := make([]bool, len(pool)-1+repeats)
		for i := 0; i < repeats; i++ {
			slots[i] = true
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		seq := []mixJob{{spec: pool[0]}}
		fresh := 1
		for _, repeat := range slots {
			if repeat {
				seq = append(seq, mixJob{spec: seq[rng.Intn(len(seq))].spec, repeat: true})
			} else {
				seq = append(seq, mixJob{spec: pool[fresh]})
				fresh++
			}
		}
		seqs[c] = seq
	}
	return seqs
}

// jobRecord is what one client observed for one job.
type jobRecord struct {
	what     string
	spec     serve.JobSpec
	id       string
	kind     string
	repeat   bool
	problems []string
	// client-side phases, seconds
	latency, submit, result float64
	// server-side, from the in-process job status (misses only)
	queueWait, run float64
	body           []byte
}

// servedEnv is one pass's server: fresh store, in-process serve.Server,
// loopback HTTP listener.
type servedEnv struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func startServer(root string) (*servedEnv, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{StoreDir: dir, JobWorkers: jobWorkers, ProfWorkers: profWorkers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e := &servedEnv{
		dir:    dir,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: mixClients * 2}},
		served: make(chan error, 1),
	}
	// The listener queues connections from here on, so the first request
	// needs no readiness probe.
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// stop drains the server, closes the listener, waits for the serving
// goroutine and removes the store.
func (e *servedEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.srv.Drain(ctx)
	e.hs.Shutdown(ctx)
	<-e.served
	e.client.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// do sends one request and returns the status code and body.
func (e *servedEnv) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// waitDone follows the job's SSE progress stream until its done event and
// returns the terminal state it names.
func (e *servedEnv) waitDone(id string) (string, error) {
	resp, err := e.client.Get(e.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if done && strings.HasPrefix(line, "data: ") {
			return strings.TrimPrefix(line, "data: "), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events stream ended without a done event")
}

// runJob drives one job through the HTTP API: submit, follow progress for
// a miss, fetch the result. first holds the client's earlier results by job
// ID: a miss's result is added, and a hit's must equal it byte for byte (the
// hit's own copy is then dropped, so the benchmark holds one copy of each
// result). With tr set, the benchmark's own spans wrap each call and a
// miss's per-job trace export is folded into selfTimes.
func (e *servedEnv) runJob(j mixJob, first map[string][]byte, tr *obs.Tracer, selfTimes map[string]float64) jobRecord {
	rec := jobRecord{
		what:   fmt.Sprintf("%s %s %s seed=%d uniform=%v", j.spec.Kind, j.spec.Program, j.spec.Target, j.spec.Options.Seed, j.spec.Uniform),
		spec:   j.spec,
		repeat: j.repeat,
	}
	if rec.kind = j.spec.Kind; rec.kind == "" {
		rec.kind = serve.KindProfile
	}
	fail := func(format string, args ...any) jobRecord {
		rec.problems = append(rec.problems, fmt.Sprintf(format, args...))
		return rec
	}
	payload, err := json.Marshal(j.spec)
	if err != nil {
		return fail("encode spec: %v", err)
	}

	start := time.Now()
	_, span := tr.StartSpanCtx(context.Background(), "bench.submit")
	code, body, err := e.do(http.MethodPost, "/v1/jobs", payload)
	span.End()
	t1 := time.Now()
	if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
		return fail("submit: code %d err %v: %s", code, err, body)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return fail("decode status: %v", err)
	}
	rec.id = st.ID
	if st.Cached != j.repeat {
		rec.problems = append(rec.problems, fmt.Sprintf("cached=%v but repeat=%v", st.Cached, j.repeat))
	}
	if st.State != serve.StateDone {
		_, span = tr.StartSpanCtx(context.Background(), "bench.wait")
		state, err := e.waitDone(st.ID)
		span.End()
		if err != nil || state != string(serve.StateDone) {
			return fail("job ended %q: %v", state, err)
		}
	}
	t2 := time.Now()
	_, span = tr.StartSpanCtx(context.Background(), "bench.result")
	code, rec.body, err = e.do(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	span.End()
	t3 := time.Now()
	if err != nil || code != http.StatusOK {
		return fail("result: code %d err %v", code, err)
	}
	rec.latency = t3.Sub(start).Seconds()
	rec.submit, rec.result = t1.Sub(start).Seconds(), t3.Sub(t2).Seconds()

	if j.repeat {
		if prev, ok := first[st.ID]; !ok || !bytes.Equal(prev, rec.body) {
			rec.problems = append(rec.problems, "store hit bytes differ from the first computation")
		}
		rec.body = nil
	} else {
		first[st.ID] = rec.body
		// Queue wait and run time as the server recorded them.
		if job, ok := e.srv.Job(st.ID); ok {
			fs := job.Status()
			started, err1 := time.Parse(time.RFC3339Nano, fs.StartedAt)
			finished, err2 := time.Parse(time.RFC3339Nano, fs.FinishedAt)
			if err1 != nil || err2 != nil {
				rec.problems = append(rec.problems, "job status lacks start/finish times")
			}
			rec.queueWait, rec.run = fs.WaitSec, finished.Sub(started).Seconds()
		} else {
			rec.problems = append(rec.problems, "job missing from the server's table")
		}
		if tr != nil {
			code, data, err := e.do(http.MethodGet, "/debug/trace/"+st.ID, nil)
			var ct struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err != nil || code != http.StatusOK || json.Unmarshal(data, &ct) != nil {
				rec.problems = append(rec.problems, fmt.Sprintf("trace export: code %d err %v", code, err))
			} else {
				chromeSelfTimes(ct.TraceEvents, selfTimes)
			}
		}
	}
	return rec
}

// profileView is the part of a run report that must be identical between a
// served and an offline profile of the same spec (the fields the serving
// smoke test compares); job metadata and wall-clock numbers legitimately
// differ.
var profileViewKeys = []string{"schema_version", "kind", "program", "options", "converged", "coverage", "nodes", "ifc"}

func profileView(report []byte) (string, error) {
	var all map[string]json.RawMessage
	if err := json.Unmarshal(report, &all); err != nil {
		return "", err
	}
	view := map[string]any{}
	for _, k := range profileViewKeys {
		raw, ok := all[k]
		if !ok {
			continue
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			return "", err
		}
		view[k] = v
	}
	out, err := json.Marshal(view)
	return string(out), err
}

// offlineView profiles a spec offline exactly as the server would, and
// returns its report view plus every work-bound check the profile fails.
func offlineView(spec serve.JobSpec) (string, []string, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return "", nil, err
	}
	m, ok := programs.ByName(norm.Program)
	if !ok {
		return "", nil, fmt.Errorf("unknown program %q", norm.Program)
	}
	opt := norm.Options.Options()
	var pf *core.Profile
	prog := m.Build()
	if norm.Uniform {
		pf, err = core.ProbProf(prog, nil, opt)
	} else {
		pf, err = core.ProbProf(prog, trace.NewQueryProcessor(trace.Generate(m.Workload(opt.Seed))), opt)
	}
	if err != nil {
		return "", nil, err
	}
	var bad []string
	if d := clockedTime(pf.Stats); d >= opt.Timeout {
		bad = append(bad, fmt.Sprintf("offline profile ran %s, into its clock budget", d))
	}
	rep := core.NewReport(pf, opt)
	core.AttachIFC(rep, prog, pf)
	data, err := json.Marshal(rep)
	if err != nil {
		return "", nil, err
	}
	view, err := profileView(data)
	return view, bad, err
}

// mixPass is one pass's summary. Job records and their result bodies are
// checked and reduced right after the pass, so no pass's results stay live
// into the next one's heap measurement.
type mixPass struct {
	wall, peak      float64
	jobs            int
	hitLat, missLat []float64
	layers          map[string]float64
}

// mixChecker carries the cross-pass check state: the offline view of every
// profile spec, computed once on first sight.
type mixChecker struct {
	chk        checker
	offline    map[string]string
	offlineBad map[string][]string
}

func runServeMix(cfg runConfig) (*outcome, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := filepath.Join(wd, ".bench_build", "serve-mix")
	defer os.RemoveAll(root)
	seqs := mixSequence(cfg.seed)

	var setupSec []float64
	// startTimed starts a server for a pass, timing set-up the way
	// setupSample does: after a collection, and averaged over as many
	// start-stop cycles as fill minSetupBatch.
	startTimed := func() (*servedEnv, error) {
		runtime.GC()
		total, n := 0.0, 0
		for {
			t0 := time.Now()
			e, err := startServer(root)
			if err != nil {
				return nil, err
			}
			total, n = total+time.Since(t0).Seconds(), n+1
			if total >= minSetupBatch.Seconds() {
				setupSec = append(setupSec, total/float64(n))
				return e, nil
			}
			e.stop()
		}
	}
	for i := 0; i < extraSetups; i++ {
		e, err := startTimed()
		if err != nil {
			return nil, err
		}
		e.stop()
	}

	mc := &mixChecker{offline: map[string]string{}, offlineBad: map[string][]string{}}
	pass := func(tr *obs.Tracer, selfTimes map[string]float64) (*mixPass, error) {
		e, err := startTimed()
		if err != nil {
			return nil, err
		}
		defer e.stop()
		runtime.GC()
		goBefore, solverBefore := readGoCounters(), solver.MetricsView()
		heap := startHeapSampler()
		recs := make([][]jobRecord, len(seqs))
		selfs := make([]map[string]float64, len(seqs))
		var wg sync.WaitGroup
		start := time.Now()
		for c := range seqs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				selfs[c] = map[string]float64{}
				first := map[string][]byte{}
				for _, j := range seqs[c] {
					recs[c] = append(recs[c], e.runJob(j, first, tr, selfs[c]))
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(start).Seconds()
		// The server's job table only grows during a pass; a collection now
		// marks it at its end instead of wherever the last cycle fell.
		runtime.GC()
		peak := heap.Stop()
		layers := goCountersSince(goBefore).layer()
		for k, v := range solverDelta(solverBefore) {
			layers[k] = v
		}
		layers["serve.store_hit_ratio"] = e.srv.Registry().Snapshot()["serve.store_hit_ratio"]
		var records []jobRecord
		for c := range recs {
			records = append(records, recs[c]...)
			for k, v := range selfs[c] {
				selfTimes[k] += v
			}
		}
		mc.check(records)
		p := &mixPass{wall: wall, peak: peak, jobs: len(records), layers: mixLayers(records, layers)}
		for _, r := range records {
			if r.repeat {
				p.hitLat = append(p.hitLat, r.latency)
			} else {
				p.missLat = append(p.missLat, r.latency)
			}
		}
		return p, nil
	}

	// Warm-up pass, checked but not timed into the medians.
	if _, err := pass(nil, map[string]float64{}); err != nil {
		return nil, err
	}
	var measured []*mixPass
	_, err = window(cfg, func() error {
		p, err := pass(nil, map[string]float64{})
		if err == nil {
			measured = append(measured, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var traced *mixPass
	selfTimes := map[string]float64{}
	if cfg.trace {
		tr := obs.NewTracer(nil)
		if traced, err = pass(tr, selfTimes); err != nil {
			return nil, err
		}
		spanSelfTimes(tr.Spans(), selfTimes)
	}

	out := &outcome{layer: zeroLayers()}
	var walls, peaks, hitLat, missLat []float64
	jobs, total := 0, 0.0
	var layerRuns []map[string]float64
	for _, p := range measured {
		walls, peaks = append(walls, p.wall), append(peaks, p.peak)
		jobs += p.jobs
		total += p.wall
		layerRuns = append(layerRuns, p.layers)
		hitLat, missLat = append(hitLat, p.hitLat...), append(missLat, p.missLat...)
	}
	out.e2e = map[string]float64{
		"wall_s":       median(walls),
		"setup_s":      median(setupSec),
		"peak_heap_mb": median(peaks),
		"jobs_per_s":   float64(jobs) / total,
	}
	medianInto(out.layer, layerRuns)
	out.layer["serve.hit_latency_p50_s"] = median(hitLat)
	out.layer["serve.miss_latency_p50_s"] = median(missLat)
	out.layer["serve.miss_latency_p90_s"] = quantile(missLat, 0.9)
	for name, v := range selfTimes {
		out.layer["span."+name+".self_s"] = v
	}
	if traced != nil {
		out.layer["trace.overhead_ratio"] = traced.wall/median(walls) - 1
	}
	out.info = append(out.info,
		fmt.Sprintf("passes %d, jobs per pass %d, pass walls %s", len(measured), measured[0].jobs, fmtSecs(walls)),
		fmt.Sprintf("%-28s %14.6g %-6s (%d hits)", "hit_latency_p50_s", median(hitLat), "s", len(hitLat)),
		fmt.Sprintf("%-28s %14.6g %-6s (%d misses)", "miss_latency_p50_s", median(missLat), "s", len(missLat)),
		fmt.Sprintf("%-28s %14.6g %-6s (%d misses)", "miss_latency_p90_s", quantile(missLat, 0.9), "s", len(missLat)))
	out.attempted, out.failed = mc.chk.attempted, mc.chk.failed
	return out, nil
}

// mixLayers derives one pass's per-layer values from its job records and
// the results the server stored, on top of the pass's runtime and solver
// deltas in v.
func mixLayers(records []jobRecord, v map[string]float64) map[string]float64 {
	pl := passLayers{vals: v}
	var submit, result, queue, run, overhead []float64
	advs, validated := 0, 0
	for _, r := range records {
		submit, result = append(submit, r.submit), append(result, r.result)
		if r.repeat {
			continue
		}
		queue, run, overhead = append(queue, r.queueWait), append(run, r.run), append(overhead, r.latency-r.run)
		switch r.kind {
		case serve.KindAdversarial:
			var ar serve.AdvResult
			if json.Unmarshal(r.body, &ar) != nil {
				continue
			}
			advs++
			if ar.Validated {
				validated++
			}
			v["testgen.symbex_s"] += ar.SymbexSec
			v["testgen.solver_s"] += ar.SolverSec
			v["testgen.havoc_s"] += ar.HavocSec
		default:
			var rep obs.Report
			if json.Unmarshal(r.body, &rep) != nil {
				continue
			}
			pl.add(rep.Stages, rep.Metrics)
		}
	}
	pl.finish()
	v["testgen.validated_ratio"] = ratioOr0(float64(validated), float64(advs))
	v["serve.submit_s"] = median(submit)
	v["serve.result_s"] = median(result)
	v["serve.queue_wait_s"] = median(queue)
	v["serve.run_s"] = median(run)
	v["serve.overhead_s"] = median(overhead)
	return v
}

// check runs every output check over one pass's job records: each profile
// against an offline ProbProf of its spec and each adversarial result for
// DUT validation. A hit was compared with its first computation as it
// arrived.
func (mc *mixChecker) check(records []jobRecord) {
	for _, r := range records {
		problems := r.problems
		if len(r.body) > 0 {
			problems = append(problems, mc.checkResult(r)...)
		}
		mc.chk.op(r.what, problems)
	}
}

// checkResult checks one job's result body.
func (mc *mixChecker) checkResult(r jobRecord) []string {
	var bad []string
	if r.kind == serve.KindAdversarial {
		var ar serve.AdvResult
		if err := json.Unmarshal(r.body, &ar); err != nil {
			return []string{"decode adversarial result: " + err.Error()}
		}
		if !ar.Validated || len(ar.Packets) == 0 {
			bad = append(bad, fmt.Sprintf("adversarial sequence not validated by DUT replay (%d packets)", len(ar.Packets)))
		}
		return bad
	}
	var rep obs.Report
	if err := json.Unmarshal(r.body, &rep); err != nil {
		return []string{"decode run report: " + err.Error()}
	}
	for _, n := range rep.Nodes {
		if math.IsNaN(n.P) || n.P < 0 || n.P > 1 {
			bad = append(bad, fmt.Sprintf("block %q has P=%v outside [0,1]", n.Label, n.P))
		}
	}
	served, err := profileView(r.body)
	if err != nil {
		return append(bad, "project served report: "+err.Error())
	}
	want, ok := mc.offline[r.id]
	if !ok {
		want, mc.offlineBad[r.id], err = offlineView(r.spec)
		if err != nil {
			return append(bad, "offline profile: "+err.Error())
		}
		mc.offline[r.id] = want
	}
	bad = append(bad, mc.offlineBad[r.id]...)
	if served != want {
		bad = append(bad, "served profile differs from the offline profile of the same spec")
	}
	return bad
}
