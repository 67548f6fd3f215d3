package core

import (
	"encoding/json"
	"testing"
	"time"
)

// WireOptions must survive the round trip to profiler options and back for
// every knob it carries, and normalization must be idempotent.
func TestWireOptionsRoundTrip(t *testing.T) {
	o := Options{
		Epsilon:          0.001,
		MaxIters:         42,
		Timeout:          90 * time.Second,
		SampleBudget:     123456,
		MaxPaths:         9999,
		DisableTelescope: true,
		DisableSampling:  true,
		Seed:             17,
		Target:           "tofino",
	}
	got := WireFromOptions(o).Options()
	if got != o {
		t.Fatalf("round trip changed options:\n got %+v\nwant %+v", got, o)
	}

	// Runtime plumbing must not reach the wire: Workers differ, wire forms
	// do not.
	a, b := o, o
	a.Workers = 1
	b.Workers = 16
	if WireFromOptions(a) != WireFromOptions(b) {
		t.Fatal("Workers leaked into the wire form")
	}

	w := WireFromOptions(o).Normalized()
	if w != w.Normalized() {
		t.Fatal("Normalized is not idempotent")
	}
	// An all-zero wire form normalizes to the documented defaults.
	def := (WireOptions{}).Normalized()
	want := WireFromOptions(Options{}.withDefaults())
	if def != want {
		t.Fatalf("zero normalization:\n got %+v\nwant %+v", def, want)
	}
	// The empty target spelling and the explicit default are one canonical
	// wire form — and therefore one content address.
	if def.Target != "idealized" {
		t.Fatalf("normalized target = %q, want idealized", def.Target)
	}
	explicit := WireOptions{Target: "idealized"}.Normalized()
	if explicit != def {
		t.Fatalf("explicit idealized normalizes differently:\n got %+v\nwant %+v", explicit, def)
	}
}

// The report's options block is derived from the wire form; the two may
// never drift. Every wire JSON key must appear in the report options map
// and vice versa.
func TestOptionsMapMatchesWireSchema(t *testing.T) {
	m := optionsMap(Options{})
	data, err := json.Marshal(WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	for k := range wire {
		if _, ok := m[k]; !ok {
			t.Errorf("wire key %q missing from report options", k)
		}
	}
	for k := range m {
		if _, ok := wire[k]; !ok {
			t.Errorf("report options key %q missing from wire schema", k)
		}
	}
	// Integral knobs stay integers in the report.
	if _, ok := m["max_iters"].(int); !ok {
		t.Fatalf("max_iters is %T, want int", m["max_iters"])
	}
}

// Out-of-range numeric options are input errors: ProbProf returns them
// instead of panicking (a negative SampleBudget used to reach make with a
// negative length) or silently ending the symbolic phase.
func TestProbProfRejectsOutOfRangeOptions(t *testing.T) {
	prog := counterProg(t, 4)
	cases := []struct {
		name string
		opt  Options
	}{
		{"negative sample budget", Options{SampleBudget: -5000}},
		{"negative timeout", Options{Timeout: -time.Second}},
		{"negative max iters", Options{MaxIters: -1}},
		{"negative max paths", Options{MaxPaths: -1}},
		{"negative epsilon", Options{Epsilon: -1e-4}},
	}
	for _, tc := range cases {
		if _, err := ProbProf(prog, nil, tc.opt); err == nil {
			t.Errorf("%s: ProbProf accepted %+v", tc.name, tc.opt)
		}
	}
	// The overflowing timeout exists only on the wire: seconds beyond what
	// a time.Duration holds.
	if err := (WireOptions{TimeoutSec: 1e10}).Validate(); err == nil {
		t.Error("timeout_sec 1e10 accepted")
	}
	if err := (WireOptions{TimeoutSec: 3600}).Validate(); err != nil {
		t.Errorf("timeout_sec 3600 rejected: %v", err)
	}
}
