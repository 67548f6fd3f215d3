package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"serve.jobs_run":     "serve_jobs_run",
		"pool.worker0.util":  "pool_worker0_util",
		"9lives":             "_9lives",
		"ok_name":            "ok_name",
		"weird-chars %":      "weird_chars__",
		"solver:custom.name": "solver:custom_name",
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusBasics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.jobs_run").Add(3)
	reg.Counter(`serve.jobs{outcome="done"}`).Add(2)
	reg.Counter(`serve.jobs{outcome="failed"}`).Add(1)
	reg.Gauge("serve.queue_depth").Set(7)
	reg.SetHelp("serve.jobs_run", "Jobs executed by the worker pool.")
	reg.RegisterView("pool", func() map[string]float64 {
		return map[string]float64{"utilization": 0.5}
	})

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# HELP serve_jobs_run Jobs executed by the worker pool.\n",
		"# TYPE serve_jobs_run counter\nserve_jobs_run 3\n",
		"# TYPE serve_jobs counter\n",
		`serve_jobs{outcome="done"} 2`,
		`serve_jobs{outcome="failed"} 1`,
		"serve_queue_depth 7",
		"pool_utilization 0.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if errs := LintPrometheus(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("self-lint failed: %v", errs)
	}

	// Deterministic: a second write renders identical bytes.
	var buf2 bytes.Buffer
	reg.WritePrometheus(&buf2)
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two renders of the same registry differ")
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram(`serve.job_run_seconds{outcome="done"}`)
	h.Observe(0.003)
	h.Observe(0.02)
	h.Observe(250) // past the last bound: lands in +Inf only
	reg.Histogram(`serve.job_run_seconds{outcome="failed"}`).Observe(1.5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	if !strings.Contains(out, "# TYPE serve_job_run_seconds histogram\n") {
		t.Fatalf("missing histogram TYPE line:\n%s", out)
	}
	for _, want := range []string{
		`serve_job_run_seconds_bucket{outcome="done",le="+Inf"} 3`,
		`serve_job_run_seconds_count{outcome="done"} 3`,
		`serve_job_run_seconds_sum{outcome="done"} 250.023`,
		`serve_job_run_seconds_bucket{outcome="failed",le="+Inf"} 1`,
		`serve_job_run_seconds_count{outcome="failed"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Buckets are cumulative: the le="0.005" bucket holds the 0.003
	// observation, le="0.05" holds both finite small ones.
	if !strings.Contains(out, `serve_job_run_seconds_bucket{outcome="done",le="0.005"} 1`) {
		t.Errorf("cumulative bucket at 0.005 wrong:\n%s", out)
	}
	if !strings.Contains(out, `serve_job_run_seconds_bucket{outcome="done",le="0.05"} 2`) {
		t.Errorf("cumulative bucket at 0.05 wrong:\n%s", out)
	}
	if errs := LintPrometheus(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("histogram exposition fails self-lint: %v", errs)
	}
}

// A base-name collision across kinds keeps the first-registered kind and
// drops the conflicting series instead of emitting a mixed family.
func TestWritePrometheusKindConflict(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dual.metric").Inc()
	reg.Gauge("dual.metric").Set(9)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE dual_metric counter\ndual_metric 1\n") {
		t.Errorf("counter series missing:\n%s", out)
	}
	if strings.Contains(out, "dual_metric 9") {
		t.Errorf("conflicting gauge series leaked into the exposition:\n%s", out)
	}
	if errs := LintPrometheus(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("self-lint failed: %v", errs)
	}
}

func TestWritePrometheusEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if errs := LintPrometheus(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("empty exposition fails lint: %v", errs)
	}
}
