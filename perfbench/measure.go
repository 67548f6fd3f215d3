package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// goCounters is a snapshot of the process-wide allocation and GC counters;
// the difference of two snapshots is what one pass cost the runtime.
type goCounters struct {
	allocBytes, allocObjects, gcCycles float64
	pauseNS                            float64
}

var goCounterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readGoCounters() goCounters {
	samples := make([]metrics.Sample, len(goCounterNames))
	for i, n := range goCounterNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	// Total stop-the-world GC pause time is exact in MemStats; runtime/metrics
	// only offers it as a bucketed histogram.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goCounters{
		allocBytes:   float64(samples[0].Value.Uint64()),
		allocObjects: float64(samples[1].Value.Uint64()),
		gcCycles:     float64(samples[2].Value.Uint64()),
		pauseNS:      float64(ms.PauseTotalNs),
	}
}

func (a goCounters) sub(b goCounters) goCounters {
	return goCounters{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		pauseNS:      a.pauseNS - b.pauseNS,
	}
}

func (g goCounters) layer() map[string]float64 {
	return map[string]float64{
		"go.alloc_mb":      g.allocBytes / (1 << 20),
		"go.alloc_objects": g.allocObjects,
		"go.gc_cycles":     g.gcCycles,
		"go.gc_pause_s":    g.pauseNS / 1e9,
	}
}

// heapSampler records the peak live heap while it runs: the heap the
// garbage collector last marked reachable. Unlike the heap including
// not-yet-collected garbage, it does not depend on where in a GC cycle a
// sample lands. The runtime keeps no high-water mark that can be reset per
// pass, so a goroutine samples runtime/metrics every few milliseconds.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		v := sample[0].Value.Uint64()
		h.mu.Lock()
		if v > h.peak {
			h.peak = v
		}
		h.mu.Unlock()
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler goroutine, and returns the peak
// in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// quantile is the linear-interpolation quantile of xs (q in [0,1]); NaN for
// an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// coveredNS is the length of the union of ivs clipped to [lo, hi].
func coveredNS(ivs []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	started := false
	for _, iv := range clipped {
		if !started || iv.lo > curHi {
			if started {
				total += curHi - curLo
			}
			curLo, curHi, started = iv.lo, iv.hi, true
			continue
		}
		curHi = max(curHi, iv.hi)
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// spanSelfTimes sums, per span name, each span's duration minus the part of
// its interval its direct children cover. Children fanned out in parallel
// (pool batches) are merged as a union, so self time never goes negative.
func spanSelfTimes(recs []obs.SpanRecord, into map[string]float64) {
	kids := map[uint64][]interval{}
	for _, r := range recs {
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], interval{int64(r.Start), int64(r.Start + r.Dur)})
		}
	}
	for _, r := range recs {
		lo, hi := int64(r.Start), int64(r.Start+r.Dur)
		self := hi - lo - coveredNS(kids[r.ID], lo, hi)
		into[r.Name] += float64(self) / 1e9
	}
}

// chromeEvent is the subset of the Chrome trace_event format the serve
// layer's per-job trace export carries.
type chromeEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`
	Dur  *float64 `json:"dur"`
	Tid  uint64   `json:"tid"`
}

// chromeSelfTimes is spanSelfTimes for an exported Chrome trace, which
// carries no parent links: within one track (tid) a span's descendants are
// the spans whose interval it contains. That reconstruction is exact for a
// job profiled by one worker, where no two spans of a track run in
// parallel.
func chromeSelfTimes(events []chromeEvent, into map[string]float64) {
	type span struct {
		name   string
		lo, hi int64
		tid    uint64
	}
	var spans []span
	for _, e := range events {
		if e.Ph != "X" || e.Dur == nil {
			continue
		}
		lo := int64(e.Ts * 1e3)
		spans = append(spans, span{e.Name, lo, lo + int64(*e.Dur*1e3), e.Tid})
	}
	for i, s := range spans {
		var inner []interval
		for k, o := range spans {
			if k != i && o.tid == s.tid && o.lo >= s.lo && o.hi <= s.hi && (o.lo > s.lo || o.hi < s.hi || k > i) {
				inner = append(inner, interval{o.lo, o.hi})
			}
		}
		into[s.name] += float64(s.hi-s.lo-coveredNS(inner, s.lo, s.hi)) / 1e9
	}
}
