package core

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// WireOptions is the JSON-marshallable form of Options: every knob that
// affects the computed profile, and nothing that is runtime plumbing.
// Context and Tracer are attached by whoever executes the run, and Workers
// is deliberately excluded because profiles are bit-identical for every
// worker count — two submissions differing only in parallelism must
// content-address to the same result. Parameters fixed as constants (α, γ,
// merging, greybox locality; see Options) have no key, and Validate bounds
// the numeric keys.
//
// The field set and JSON keys are shared with the run report's "options"
// block (see optionsMap), so a stored report always records exactly the
// wire options that produced it.
type WireOptions struct {
	Epsilon          float64 `json:"epsilon"`
	MaxIters         int     `json:"max_iters"`
	TimeoutSec       float64 `json:"timeout_sec"`
	SampleBudget     int     `json:"sample_budget"`
	MaxPaths         int     `json:"max_paths"`
	DisableTelescope bool    `json:"disable_telescope"`
	DisableSampling  bool    `json:"disable_sampling"`
	DisablePrune     bool    `json:"disable_prune"`
	Seed             int64   `json:"seed"`
	// Target names the device model profiled against ("" normalizes to
	// "idealized"). It is part of the wire form — and therefore of the
	// content-addressed store key — because the same program produces a
	// different profile per target; cached results must never mix targets.
	Target string `json:"target"`
}

// WireFromOptions projects Options onto its wire form, dropping the
// runtime-only fields.
func WireFromOptions(o Options) WireOptions {
	return WireOptions{
		Epsilon:          o.Epsilon,
		MaxIters:         o.MaxIters,
		TimeoutSec:       o.Timeout.Seconds(),
		SampleBudget:     o.SampleBudget,
		MaxPaths:         o.MaxPaths,
		DisableTelescope: o.DisableTelescope,
		DisableSampling:  o.DisableSampling,
		DisablePrune:     o.DisablePrune,
		Seed:             o.Seed,
		Target:           o.Target,
	}
}

// Options converts the wire form back into profiler options. Zero values
// keep their usual meaning ("use the documented default"); runtime fields
// are left for the caller to attach.
func (w WireOptions) Options() Options {
	return Options{
		Epsilon:          w.Epsilon,
		MaxIters:         w.MaxIters,
		Timeout:          time.Duration(w.TimeoutSec * float64(time.Second)),
		SampleBudget:     w.SampleBudget,
		MaxPaths:         w.MaxPaths,
		DisableTelescope: w.DisableTelescope,
		DisableSampling:  w.DisableSampling,
		DisablePrune:     w.DisablePrune,
		Seed:             w.Seed,
		Target:           w.Target,
	}
}

// maxTimeoutSec is the smallest timeout_sec whose nanoseconds overflow a
// time.Duration.
const maxTimeoutSec = float64(math.MaxInt64) / float64(time.Second)

// Validate rejects numeric options outside their domain: negative values
// (zero selects the documented default) and a timeout_sec too large for a
// time.Duration. ProbProf and the daemon's submission path both call it, so
// a bad value is reported as an input error instead of panicking or ending a
// phase at once.
func (w WireOptions) Validate() error {
	switch {
	case !(w.Epsilon >= 0):
		return fmt.Errorf("options: epsilon must be >= 0, got %g", w.Epsilon)
	case w.MaxIters < 0:
		return fmt.Errorf("options: max_iters must be >= 0, got %d", w.MaxIters)
	case !(w.TimeoutSec >= 0 && w.TimeoutSec < maxTimeoutSec):
		return fmt.Errorf("options: timeout_sec must be in [0, %g), got %g", maxTimeoutSec, w.TimeoutSec)
	case w.SampleBudget < 0:
		return fmt.Errorf("options: sample_budget must be >= 0, got %d", w.SampleBudget)
	case w.MaxPaths < 0:
		return fmt.Errorf("options: max_paths must be >= 0, got %d", w.MaxPaths)
	}
	return nil
}

// Normalized applies the profiler's documented defaults, so submissions
// that omit a knob and submissions that spell out its default value are
// the same wire options — and therefore the same content address.
func (w WireOptions) Normalized() WireOptions {
	return WireFromOptions(w.Options().withDefaults())
}

// optionsMap records the effective (defaulted) options as the run report's
// "options" block. It is derived from the wire form so the two schemas can
// never drift apart; integral knobs are kept as Go ints rather than the
// float64 a plain JSON round-trip would produce.
func optionsMap(optIn Options) map[string]any {
	data, err := json.Marshal(WireFromOptions(optIn.withDefaults()))
	if err != nil {
		return nil
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return nil
	}
	for k, v := range m {
		if f, ok := v.(float64); ok && f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			m[k] = int(f)
		}
	}
	return m
}
