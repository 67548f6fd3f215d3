package core

import (
	"encoding/json"
	"math"
	"time"
)

// WireOptions is the JSON-marshallable form of Options: every knob that
// affects the computed profile, and nothing that is runtime plumbing.
// Context and Tracer are attached by whoever executes the run, and Workers
// is deliberately excluded because profiles are bit-identical for every
// worker count — two submissions differing only in parallelism must
// content-address to the same result.
//
// The field set and JSON keys are shared with the run report's "options"
// block (see optionsMap), so a stored report always records exactly the
// wire options that produced it.
type WireOptions struct {
	Alpha            float64 `json:"alpha"`
	Epsilon          float64 `json:"epsilon"`
	Gamma            int     `json:"gamma"`
	Delta            int     `json:"delta"`
	MaxIters         int     `json:"max_iters"`
	TimeoutSec       float64 `json:"timeout_sec"`
	SampleBudget     int     `json:"sample_budget"`
	MaxPaths         int     `json:"max_paths"`
	DisableTelescope bool    `json:"disable_telescope"`
	DisableMerge     bool    `json:"disable_merge"`
	DisableSampling  bool    `json:"disable_sampling"`
	DisablePrune     bool    `json:"disable_prune"`
	Locality         float64 `json:"locality"`
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
		Alpha:            o.Alpha,
		Epsilon:          o.Epsilon,
		Gamma:            o.Gamma,
		Delta:            o.Delta,
		MaxIters:         o.MaxIters,
		TimeoutSec:       o.Timeout.Seconds(),
		SampleBudget:     o.SampleBudget,
		MaxPaths:         o.MaxPaths,
		DisableTelescope: o.DisableTelescope,
		DisableMerge:     o.DisableMerge,
		DisableSampling:  o.DisableSampling,
		DisablePrune:     o.DisablePrune,
		Locality:         o.Locality,
		Seed:             o.Seed,
		Target:           o.Target,
	}
}

// Options converts the wire form back into profiler options. Zero values
// keep their usual meaning ("use the documented default"); runtime fields
// are left for the caller to attach.
func (w WireOptions) Options() Options {
	return Options{
		Alpha:            w.Alpha,
		Epsilon:          w.Epsilon,
		Gamma:            w.Gamma,
		Delta:            w.Delta,
		MaxIters:         w.MaxIters,
		Timeout:          time.Duration(w.TimeoutSec * float64(time.Second)),
		SampleBudget:     w.SampleBudget,
		MaxPaths:         w.MaxPaths,
		DisableTelescope: w.DisableTelescope,
		DisableMerge:     w.DisableMerge,
		DisableSampling:  w.DisableSampling,
		DisablePrune:     w.DisablePrune,
		Locality:         w.Locality,
		Seed:             w.Seed,
		Target:           w.Target,
	}
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
