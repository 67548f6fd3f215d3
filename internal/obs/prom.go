package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// PrometheusContentType is the content type of the text exposition format
// WritePrometheus emits.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promSample is one exposition sample: a sanitized base name, sorted
// rendered labels ("" or `{k="v",...}`), and a value.
type promSample struct {
	labels string
	value  float64
}

// promFamily is one metric family: every sample sharing a sanitized base
// name, with its type and optional help text.
type promFamily struct {
	kind    string // "counter" | "gauge" | "histogram"
	help    string
	samples []promSample
	hist    []*promHist
}

type promHist struct {
	labels []promLabel
	h      *Histogram
}

type promLabel struct{ name, value string }

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): names sanitized to [a-zA-Z_:][a-zA-Z0-9_:]*,
// one # HELP/# TYPE pair per family, histograms as cumulative _bucket
// series with le labels plus _sum and _count, and views flattened as
// gauges. Registry metric names may carry a `{key="value",...}` suffix to
// emit labeled series (e.g. `serve.job_run_seconds{outcome="done"}`);
// label sets are re-sorted by label name. Output is deterministic: families
// and samples are sorted. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	views := make(map[string]ViewFunc, len(r.views))
	for k, v := range r.views {
		views[k] = v
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	families := map[string]*promFamily{}
	add := func(rawName, kind string, value float64, h *Histogram) {
		base, labels, ok := splitPromName(rawName)
		if !ok {
			return // malformed label suffix; drop rather than emit garbage
		}
		name := SanitizeMetricName(base)
		fam := families[name]
		if fam == nil {
			fam = &promFamily{kind: kind, help: help[base]}
			families[name] = fam
		}
		if fam.kind != kind {
			// First registered kind wins; conflicting series are dropped so
			// the exposition never mixes types under one family.
			return
		}
		if fam.help == "" {
			fam.help = help[base]
		}
		if kind == "histogram" {
			fam.hist = append(fam.hist, &promHist{labels: labels, h: h})
			return
		}
		fam.samples = append(fam.samples, promSample{labels: renderLabels(labels), value: value})
	}

	// Counters first, then histograms, then gauges and views: on a base-name
	// collision across kinds the earlier registration order decides, and the
	// order here is fixed so the outcome is deterministic.
	for _, k := range sortedKeys(counters) {
		add(k, "counter", float64(counters[k].Value()), nil)
	}
	for _, k := range sortedKeys(hists) {
		add(k, "histogram", 0, hists[k])
	}
	for _, k := range sortedKeys(gauges) {
		add(k, "gauge", gauges[k].Value(), nil)
	}
	for _, name := range sortedKeys(views) {
		vals := views[name]()
		for _, k := range sortedKeys(vals) {
			add(name+"."+k, "gauge", vals[k], nil)
		}
	}

	var b strings.Builder
	for _, name := range sortedKeys(families) {
		fam := families[name]
		if fam.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(fam.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, fam.kind)
		if fam.kind == "histogram" {
			for _, ph := range fam.hist {
				writePromHistogram(&b, name, ph)
			}
			continue
		}
		sort.Slice(fam.samples, func(i, j int) bool { return fam.samples[i].labels < fam.samples[j].labels })
		for _, s := range fam.samples {
			fmt.Fprintf(&b, "%s%s %s\n", name, s.labels, formatPromValue(s.value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writePromHistogram(b *strings.Builder, name string, ph *promHist) {
	bounds, cum := ph.h.Buckets()
	count, sum, _, _ := ph.h.Summary()
	for i, bound := range bounds {
		labels := append(append([]promLabel(nil), ph.labels...),
			promLabel{"le", formatPromValue(bound)})
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(labels), cum[i])
	}
	labels := append(append([]promLabel(nil), ph.labels...), promLabel{"le", "+Inf"})
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(labels), cum[len(cum)-1])
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(ph.labels), formatPromValue(sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(ph.labels), count)
}

// SanitizeMetricName maps an internal dotted metric name onto the
// Prometheus name charset: every run of invalid characters becomes one
// underscore, and a leading digit gets an underscore prefix.
func SanitizeMetricName(name string) string {
	var b strings.Builder
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// splitPromName splits an internal metric name into its base and an
// optional parsed `{k="v",...}` label suffix. Returns ok=false when the
// suffix is present but malformed.
func splitPromName(name string) (base string, labels []promLabel, ok bool) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, nil, true
	}
	base = name[:i]
	rest := name[i:]
	if !strings.HasSuffix(rest, "}") {
		return "", nil, false
	}
	inner := rest[1 : len(rest)-1]
	for _, pair := range splitLabelPairs(inner) {
		eq := strings.Index(pair, "=")
		if eq < 0 {
			return "", nil, false
		}
		k := strings.TrimSpace(pair[:eq])
		v := strings.TrimSpace(pair[eq+1:])
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return "", nil, false
		}
		labels = append(labels, promLabel{SanitizeLabelName(k), v[1 : len(v)-1]})
	}
	sort.Slice(labels, func(a, b int) bool { return labels[a].name < labels[b].name })
	return base, labels, true
}

// splitLabelPairs splits `k="v",k2="v2"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// SanitizeLabelName maps a label name onto [a-zA-Z_][a-zA-Z0-9_]*.
func SanitizeLabelName(name string) string {
	var b strings.Builder
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

func renderLabels(labels []promLabel) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s=%q`, l.name, l.value)
	}
	b.WriteByte('}')
	return b.String()
}

func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
