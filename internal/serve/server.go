package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/p4c"
	"repro/internal/programs"
	"repro/internal/testgen"
	"repro/internal/trace"
)

// Config tunes the profiling service.
type Config struct {
	// StoreDir roots the content-addressed result store
	// (default "results/store").
	StoreDir string
	// StoreCap bounds the store's in-memory LRU layer (default 256).
	StoreCap int
	// QueueDepth bounds queued jobs; past it submissions get 429 +
	// Retry-After (default 64).
	QueueDepth int
	// JobWorkers is how many jobs run concurrently (default 2).
	JobWorkers int
	// ProfWorkers is each job's profiler parallelism (0 = GOMAXPROCS).
	// Profiles are byte-identical for every value, so it is a throughput
	// knob, never a correctness one.
	ProfWorkers int
	// DefaultJobTimeout bounds jobs that do not ask for a timeout
	// (default 5m); MaxJobTimeout clamps jobs that do (default 30m).
	DefaultJobTimeout time.Duration
	MaxJobTimeout     time.Duration
	// MaxPathsQuota caps the per-job MaxPaths option (default 1<<20;
	// negative disables the cap). It only binds when a submission asks for
	// more than the quota, so default-option jobs stay byte-identical to
	// offline runs.
	MaxPathsQuota int
	// ReplayCap bounds each job's SSE replay buffer in lines (default 4096);
	// past it late subscribers only see live lines.
	ReplayCap int
	// Registry receives the service counters and views; a fresh registry
	// is created when nil.
	Registry *obs.Registry
	// Logger receives the daemon's structured log lines; every record tagged
	// with a job carries job_id and trace_id attributes. Nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.StoreDir == "" {
		c.StoreDir = "results/store"
	}
	if c.StoreCap == 0 {
		c.StoreCap = 256
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.JobWorkers == 0 {
		c.JobWorkers = 2
	}
	if c.DefaultJobTimeout == 0 {
		c.DefaultJobTimeout = 5 * time.Minute
	}
	if c.MaxJobTimeout == 0 {
		c.MaxJobTimeout = 30 * time.Minute
	}
	if c.MaxPathsQuota == 0 {
		c.MaxPathsQuota = 1 << 20
	}
	if c.ReplayCap == 0 {
		c.ReplayCap = hubReplayCap
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the profiling service: it owns the queue, the store, and the
// worker pool of job runners, and serves the JSON HTTP API.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	log   *slog.Logger
	store *Store
	queue *queue

	mu   sync.Mutex
	jobs map[string]*Job

	draining bool

	baseCtx  context.Context
	stopAll  context.CancelFunc
	workerWG sync.WaitGroup

	// testHold, when non-nil, gates job execution: each worker receives
	// from it before running a job. Tests use it to pile up concurrent
	// identical submissions behind one in-flight job.
	testHold chan struct{}
	// testFault, when non-nil, runs at the head of execute; tests use it to
	// inject engine panics and verify per-job isolation.
	testFault func(spec JobSpec)
}

// jobsCap bounds the in-memory job table; terminal jobs are discarded
// oldest-first past it (their results live on in the store).
const jobsCap = 1024

// New builds a Server and starts its job workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	store, err := OpenStore(cfg.StoreDir, cfg.StoreCap)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		log:     cfg.Logger,
		store:   store,
		queue:   newQueue(cfg.QueueDepth),
		jobs:    map[string]*Job{},
		baseCtx: ctx,
		stopAll: cancel,
	}
	s.reg.RegisterView("store", store.Metrics)
	s.reg.RegisterView("serve", s.viewMetrics)
	s.reg.SetHelp("serve.queue_wait_seconds", "Time jobs spend queued before running, by outcome.")
	s.reg.SetHelp("serve.job_run_seconds", "Job run duration from start to terminal state, by outcome.")
	s.reg.SetHelp("serve.sse_lag_lines", "Per-line backlog of live SSE subscriber channels.")
	s.reg.SetHelp("serve.store_hit_ratio", "Fraction of store lookups served from cache.")
	for i := 0; i < cfg.JobWorkers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// Store exposes the result store (the daemon logs its directory).
func (s *Server) Store() *Store { return s.store }

// Registry exposes the metrics registry backing /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// viewMetrics is the "serve." gauge view.
func (s *Server) viewMetrics() map[string]float64 {
	s.mu.Lock()
	jobs := len(s.jobs)
	running := 0
	for _, j := range s.jobs {
		if j.State() == StateRunning {
			running++
		}
	}
	draining := 0.0
	if s.draining {
		draining = 1
	}
	s.mu.Unlock()
	out := map[string]float64{
		"queue_depth": float64(s.queue.depth()),
		"jobs":        float64(jobs),
		"running":     float64(running),
		"draining":    draining,
	}
	// Store hit ratio as a gauge: hits over lookups, 0 before any traffic.
	sm := s.store.Metrics()
	if total := sm["hits_total"] + sm["misses"]; total > 0 {
		out["store_hit_ratio"] = sm["hits_total"] / total
	} else {
		out["store_hit_ratio"] = 0
	}
	return out
}

// Submit runs the single-flight submission flow shared by the HTTP handler
// and in-process tests. The returned code is the HTTP status the outcome
// maps to: 200 (served from store or deduplicated onto an existing job),
// 202 (newly enqueued), 400 (bad spec), 429 (queue full), 503 (draining).
func (s *Server) Submit(spec JobSpec) (JobStatus, int, error) {
	norm, err := spec.normalize()
	if err != nil {
		return JobStatus{}, http.StatusBadRequest, err
	}
	id := norm.id()
	s.reg.Counter("serve.submitted").Inc()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reg.Counter("serve.rejected_draining").Inc()
		return JobStatus{}, http.StatusServiceUnavailable, ErrDraining
	}
	if j, ok := s.jobs[id]; ok && j.State() != StateFailed && j.State() != StateCanceled {
		// Single-flight: an identical job is queued, running, or done.
		st := j.Status()
		if st.State == StateDone {
			st.Cached = true
			s.reg.Counter("serve.store_hits").Inc()
		} else {
			s.reg.Counter("serve.dedup_inflight").Inc()
		}
		s.mu.Unlock()
		return st, http.StatusOK, nil
	}
	s.mu.Unlock()

	// Replay from the content-addressed store: identical work was finished
	// in this or an earlier daemon life.
	if _, ok := s.store.Get(id); ok {
		s.reg.Counter("serve.store_hits").Inc()
		return JobStatus{
			ID: id, Kind: norm.Kind, State: StateDone, Cached: true,
			Priority: norm.Priority,
		}, http.StatusOK, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.reg.Counter("serve.rejected_draining").Inc()
		return JobStatus{}, http.StatusServiceUnavailable, ErrDraining
	}
	// Re-check under the lock: a racing identical submission may have won.
	if j, ok := s.jobs[id]; ok && j.State() != StateFailed && j.State() != StateCanceled {
		s.reg.Counter("serve.dedup_inflight").Inc()
		return j.Status(), http.StatusOK, nil
	}
	j := newJob(id, norm, time.Now(), s.cfg.ReplayCap)
	j.hub.lag = s.reg.Histogram("serve.sse_lag_lines")
	j.hub.dropCtr = s.reg.Counter("serve.sse_dropped_lines")
	if err := s.queue.push(j); err != nil {
		code := http.StatusServiceUnavailable
		if err == ErrQueueFull {
			code = http.StatusTooManyRequests
			s.reg.Counter("serve.rejected_full").Inc()
		}
		return JobStatus{}, code, err
	}
	s.jobs[id] = j
	s.trimJobsLocked()
	s.reg.Counter("serve.enqueued").Inc()
	s.jobLog(j).Info("job enqueued",
		"kind", j.Spec.Kind, "priority", j.Spec.Priority,
		"queue_depth", s.queue.depth())
	return j.Status(), http.StatusAccepted, nil
}

// jobLog returns the server logger scoped to a job: every record carries
// the job and trace identifiers.
func (s *Server) jobLog(j *Job) *slog.Logger {
	return s.log.With("job_id", j.ID, "trace_id", j.traceID)
}

// trimJobsLocked discards the oldest terminal jobs past jobsCap; callers
// hold s.mu. Results remain addressable through the store.
func (s *Server) trimJobsLocked() {
	if len(s.jobs) <= jobsCap {
		return
	}
	type aged struct {
		id string
		at time.Time
	}
	var terminal []aged
	for id, j := range s.jobs {
		j.mu.Lock()
		if j.state.terminal() {
			terminal = append(terminal, aged{id, j.finished})
		}
		j.mu.Unlock()
	}
	sort.Slice(terminal, func(i, k int) bool { return terminal[i].at.Before(terminal[k].at) })
	for _, t := range terminal {
		if len(s.jobs) <= jobsCap {
			break
		}
		delete(s.jobs, t.id)
	}
}

// Job returns the in-memory job record for an ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker pulls jobs off the queue until the queue closes and drains.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		if hold := s.testHold; hold != nil {
			<-hold
		}
		s.runJob(j)
	}
}

// runJob executes one job under its deadline with panic isolation: a
// panicking engine fails the job, never the daemon.
func (s *Server) runJob(j *Job) {
	timeout := s.cfg.DefaultJobTimeout
	if j.Spec.TimeoutSec > 0 {
		// Clamp in float seconds: converting first overflows Duration for
		// huge requests and yields a negative, instantly expired timeout.
		timeout = s.cfg.MaxJobTimeout
		if j.Spec.TimeoutSec < timeout.Seconds() {
			timeout = time.Duration(j.Spec.TimeoutSec * float64(time.Second))
		}
	}
	if timeout > s.cfg.MaxJobTimeout {
		timeout = s.cfg.MaxJobTimeout
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()
	started := time.Now()
	if !j.setRunning(cancel, started) {
		// Canceled while queued: the wait still ended, just not in a run.
		s.reg.Histogram(`serve.queue_wait_seconds{outcome="canceled"}`).
			Observe(started.Sub(j.submitted).Seconds())
		return
	}
	s.reg.Counter("serve.jobs_run").Inc()
	s.reg.Histogram(`serve.queue_wait_seconds{outcome="run"}`).
		Observe(started.Sub(j.submitted).Seconds())
	s.jobLog(j).Info("job started",
		"kind", j.Spec.Kind, "timeout", timeout.String(),
		"wait_sec", started.Sub(j.submitted).Seconds())

	finish := func(state JobState, errMsg, outcome string) {
		now := time.Now()
		dur := now.Sub(started)
		s.reg.Histogram(`serve.job_run_seconds{outcome="` + outcome + `"}`).
			Observe(dur.Seconds())
		// Log before the transition: anyone woken by the terminal state
		// then already sees the job's last log line.
		lg := s.jobLog(j)
		if errMsg == "" {
			lg.Info("job finished", "outcome", outcome, "run_sec", dur.Seconds())
		} else {
			lg.Warn("job finished", "outcome", outcome, "run_sec", dur.Seconds(),
				"error", firstLine(errMsg))
		}
		j.finish(state, errMsg, now)
	}

	defer func() {
		if rec := recover(); rec != nil {
			s.reg.Counter("serve.panics").Inc()
			s.reg.Counter("serve.jobs_failed").Inc()
			finish(StateFailed, fmt.Sprintf("panic: %v\n%s", rec, debug.Stack()), "failed")
		}
	}()

	data, err := s.execute(ctx, j)
	switch {
	case err == nil:
		if perr := s.persist(j, data); perr != nil {
			s.reg.Counter("serve.jobs_failed").Inc()
			finish(StateFailed, "persist result: "+perr.Error(), "failed")
			return
		}
		s.reg.Counter("serve.jobs_done").Inc()
		finish(StateDone, "", "done")
	case ctx.Err() == context.Canceled:
		s.reg.Counter("serve.jobs_canceled").Inc()
		finish(StateCanceled, "canceled", "canceled")
	case ctx.Err() == context.DeadlineExceeded:
		s.reg.Counter("serve.jobs_failed").Inc()
		finish(StateFailed, fmt.Sprintf("job timeout (%s) exceeded", timeout), "failed")
	default:
		s.reg.Counter("serve.jobs_failed").Inc()
		finish(StateFailed, err.Error(), "failed")
	}
}

// persist writes the job's result into the content-addressed store under
// its own span, so trace exports show store latency next to engine time.
func (s *Server) persist(j *Job, data []byte) error {
	_, span := j.tracer.StartSpanCtx(j.runContext(context.Background()), "persist")
	span.Annotate(obs.F("bytes", float64(len(data))))
	err := s.store.Put(j.ID, data)
	span.End()
	return err
}

// firstLine trims a multi-line error (panic stacks) for log records; the
// full text stays on the job status.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// execute runs the job's pipeline and returns the result JSON to store.
func (s *Server) execute(ctx context.Context, j *Job) ([]byte, error) {
	if s.testFault != nil {
		s.testFault(j.Spec)
	}
	prog, meta, err := s.buildProgram(j.Spec)
	if err != nil {
		return nil, err
	}
	switch j.Spec.Kind {
	case KindAdversarial:
		return s.runAdversarial(ctx, j, prog)
	default:
		return s.runProfile(ctx, j, prog, meta)
	}
}

// buildProgram resolves the spec's program or inline source. meta is nil
// for inline sources.
func (s *Server) buildProgram(spec JobSpec) (*ir.Program, *programs.Meta, error) {
	if spec.Source != "" {
		prog, err := p4c.Parse(spec.Source)
		if err != nil {
			return nil, nil, fmt.Errorf("compile source: %w", err)
		}
		return prog, nil, nil
	}
	m, ok := programs.ByName(spec.Program)
	if !ok {
		return nil, nil, fmt.Errorf("unknown program %q", spec.Program)
	}
	return m.Build(), &m, nil
}

// oracleFor mirrors the CLI's workload selection so served profiles are
// byte-identical to `p4wn profile` for the same inputs: zoo programs use
// their registered workload, inline sources the default synthetic trace,
// and uniform submissions no oracle at all.
func oracleFor(spec JobSpec, meta *programs.Meta) dist.Oracle {
	if spec.Uniform {
		return nil
	}
	gen := trace.GenOptions{Seed: spec.Options.Seed}
	if meta != nil {
		gen = meta.Workload(spec.Options.Seed)
	}
	return trace.NewQueryProcessor(trace.Generate(gen))
}

// runProfile executes a profile job and renders the versioned run report
// with job metadata attached.
func (s *Server) runProfile(ctx context.Context, j *Job, prog *ir.Program, meta *programs.Meta) ([]byte, error) {
	opt := j.Spec.Options.Options()
	// The job's own tracer runs the profile, so engine spans nest under the
	// job's "run" span and /debug/trace/{id} exports one connected tree.
	opt.Context = j.runContext(ctx)
	opt.Workers = s.cfg.ProfWorkers
	opt.Tracer = j.tracer
	if s.cfg.MaxPathsQuota > 0 && opt.MaxPaths > s.cfg.MaxPathsQuota {
		opt.MaxPaths = s.cfg.MaxPathsQuota
	}
	prof, err := core.ProbProf(prog, oracleFor(j.Spec, meta), opt)
	if err != nil {
		return nil, err
	}
	rep := core.NewReport(prof, opt)
	core.AttachIFC(rep, prog, prof)
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.Job = s.jobMeta(j)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// runAdversarial executes an adversarial-generation job; the job context
// threads through directed symbex, the solver, and havocing, so Cancel
// stops a solving job mid-search.
func (s *Server) runAdversarial(ctx context.Context, j *Job, prog *ir.Program) ([]byte, error) {
	node := prog.NodeByLabel(j.Spec.Target)
	if node == nil {
		return nil, fmt.Errorf("program %q has no block labeled %q", prog.Name, j.Spec.Target)
	}
	adv, err := testgen.Generate(prog, node.ID, testgen.Options{
		Seed:   j.Spec.Options.Seed,
		Ctx:    ctx,
		Target: j.Spec.Options.Target,
	})
	if err != nil {
		return nil, err
	}
	res := advResultFrom(adv, obs.SchemaVersion)
	res.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	res.Job = s.jobMeta(j)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// jobMeta snapshots the job's queue trajectory for the stored result.
func (s *Server) jobMeta(j *Job) *obs.JobMeta {
	j.mu.Lock()
	defer j.mu.Unlock()
	m := &obs.JobMeta{
		ID:          j.ID,
		TraceID:     j.traceID,
		Kind:        j.Spec.Kind,
		Priority:    j.Spec.Priority,
		SubmittedAt: timeRFC(j.submitted),
		StartedAt:   timeRFC(j.started),
	}
	if !j.started.IsZero() {
		m.WaitSec = j.started.Sub(j.submitted).Seconds()
	}
	return m
}

// Draining reports whether the server has begun its graceful drain.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain performs the graceful shutdown: stop accepting submissions, let
// workers finish everything queued and in flight (results are persisted as
// usual), and return when the last worker parks. If ctx expires first, the
// remaining jobs are hard-canceled and Drain returns ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.queue.close()
	s.log.Info("drain started", "queue_depth", s.queue.depth())

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("drain complete")
		return nil
	case <-ctx.Done():
		s.stopAll() // cancels every in-flight job context
		<-done
		s.log.Warn("drain deadline hit; in-flight jobs canceled")
		return ctx.Err()
	}
}

// Close hard-stops the server (tests): cancel everything and wait.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.queue.close()
	s.stopAll()
	s.workerWG.Wait()
}

// Handler returns the service mux: the job API plus the observability
// endpoints (/metrics, pprof) on the same listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleLive)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	obs.Mount(mux, s.reg)
	return mux
}

// handleTrace exports a job's span tree as Chrome trace_event JSON, ready
// for chrome://tracing or https://ui.perfetto.dev.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{"unknown job " + id})
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Disposition", `attachment; filename="trace-`+j.traceID+`.json"`)
	j.tracer.WriteChromeTrace(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleLive is the liveness probe: 200 for as long as the process can
// answer HTTP at all, draining included. Orchestrators restart on failure
// here, so it must never report drain as death.
func (s *Server) handleLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"state": "ok"})
}

// handleReady is the readiness probe: 200 while accepting submissions, 503
// once the drain barrier is down. Load balancers stop routing new work on
// the first 503 while in-flight jobs finish behind it.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"state": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"state": "serving"})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{"decode job spec: " + err.Error()})
		return
	}
	st, code, err := s.Submit(spec)
	if err != nil {
		if code == http.StatusTooManyRequests {
			// Backpressure: tell clients when to come back.
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, code, errorBody{err.Error()})
		return
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		statuses = append(statuses, j.Status())
	}
	s.mu.Unlock()
	sort.Slice(statuses, func(i, k int) bool {
		if statuses[i].SubmittedAt != statuses[k].SubmittedAt {
			return statuses[i].SubmittedAt < statuses[k].SubmittedAt
		}
		return statuses[i].ID < statuses[k].ID
	})
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j, ok := s.Job(id); ok {
		writeJSON(w, http.StatusOK, j.Status())
		return
	}
	// Fall back to the store: a finished job from a previous daemon life.
	if _, ok := s.store.Get(id); ok {
		writeJSON(w, http.StatusOK, JobStatus{ID: id, State: StateDone, Cached: true})
		return
	}
	writeJSON(w, http.StatusNotFound, errorBody{"unknown job " + id})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{"unknown job " + id})
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if data, ok := s.store.Get(id); ok {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Write(data)
		return
	}
	j, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{"unknown job " + id})
		return
	}
	switch st := j.Status(); st.State {
	case StateQueued, StateRunning:
		writeJSON(w, http.StatusAccepted, st) // not ready yet; poll again
	case StateCanceled:
		writeJSON(w, http.StatusGone, st)
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, st)
	default:
		// Done but missing from the store: the persist failed and the job
		// should have been marked failed; surface it as such.
		writeJSON(w, http.StatusInternalServerError, errorBody{"result missing for job " + id})
	}
}

// handleEvents streams the job's progress lines as Server-Sent Events:
// every tracer line is one "data:" event, and a final "done" event carries
// the terminal state. Late subscribers replay the full history first.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{"unknown job " + id})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{"streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, replay := j.hub.subscribe()
	defer j.hub.unsubscribe(ch)
	for _, line := range replay {
		fmt.Fprintf(w, "data: %s\n\n", line)
	}
	flusher.Flush()

	for {
		select {
		case line, open := <-ch:
			if !open {
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", j.State())
				flusher.Flush()
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", line)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
