// Package metrics is the simulator's observability substrate: a registry of
// named counters, gauges, and log2-bucketed histograms that the core, the
// memory hierarchy, and the security policies register into, an interval
// sampler that snapshots the registry on the core's cycle loop, and
// exporters for the resulting time series (CSV, JSONL) and for Chrome
// trace-event JSON loadable in Perfetto.
//
// The design constraint is that instrumentation must cost nothing on the
// simulator's hot path. Three mechanisms keep it that way:
//
//   - Counter increments are plain uint64 additions with no indirection:
//     either a Counter owned by the registry (c.Inc()) or an existing
//     struct field bound by pointer (BindCounter), so packages keep their
//     `stats.Field++` hot path untouched and the registry reads the field
//     only at snapshot time.
//   - Histogram.Observe is a bounded-array bucket increment (bits.Len64).
//   - An unattached registry is a nil pointer: every instrumentation site
//     is behind one nil check, and Config.SampleEvery == 0 never builds a
//     sampler at all.
//
// The registry is deliberately not safe for concurrent use — the simulator
// is single-threaded — which is what allows atomic-free counters. Campaign
// workers each own a private registry.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Kind classifies a registered metric.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Counter is a monotonically increasing event count owned by a registry.
// The zero value is usable but unregistered; obtain one via
// Registry.Counter so it shows up in snapshots.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Histogram is a log2-bucketed histogram of uint64 observations: bucket 0
// counts zeros, bucket i (i >= 1) counts values in [2^(i-1), 2^i - 1].
// Observe is allocation-free.
type Histogram struct {
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets [65]uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max return the observed extremes (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Bucket is one non-empty histogram bucket: Count observations fell in
// [Lo, Hi].
type Bucket struct {
	Lo, Hi uint64
	Count  uint64
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		b := Bucket{Count: n}
		if i > 0 {
			b.Lo = 1 << (i - 1)
			b.Hi = 1<<i - 1
		}
		out = append(out, b)
	}
	return out
}

// Snapshot returns a copyable view of the histogram for export.
func (h *Histogram) Snapshot() HistSnapshot {
	return HistSnapshot{
		Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		Buckets: h.Buckets(),
	}
}

// String renders the histogram as labeled ASCII bars.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "(empty)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d mean=%.1f min=%d max=%d\n", h.count, h.Mean(), h.min, h.max)
	buckets := h.Buckets()
	var peak uint64
	for _, bk := range buckets {
		if bk.Count > peak {
			peak = bk.Count
		}
	}
	for _, bk := range buckets {
		width := int(math.Round(float64(bk.Count) / float64(peak) * 40))
		fmt.Fprintf(&b, "  [%8d, %8d] %8d %s\n", bk.Lo, bk.Hi, bk.Count, strings.Repeat("#", width))
	}
	return b.String()
}

// HistSnapshot is a histogram's exportable state.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// entry is one registered metric.
type entry struct {
	name    string
	kind    Kind
	counter *Counter      // owned counter
	source  func() uint64 // bound counter (reads an external field)
	gauge   func() float64
	hist    *Histogram
}

// Registry is the named-metric directory. The zero value is unusable; call
// NewRegistry. Not safe for concurrent use (the simulator is
// single-threaded).
type Registry struct {
	entries []entry
	byName  map[string]int
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

func (r *Registry) add(e entry) {
	if _, dup := r.byName[e.name]; dup {
		panic("metrics: duplicate registration of " + e.name)
	}
	r.byName[e.name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// Counter registers and returns a new owned counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.add(entry{name: name, kind: KindCounter, counter: c})
	return c
}

// BindCounter registers an existing uint64 field as a counter. The caller
// keeps incrementing the field directly (zero instrumentation cost); the
// registry reads it through the pointer at snapshot time. The pointer must
// stay valid for the registry's lifetime — binding fields of a struct
// *value* embedded in a long-lived owner (cpu.Machine.Stats and friends)
// satisfies that even across `stats = Stats{}` resets.
func (r *Registry) BindCounter(name string, p *uint64) {
	r.add(entry{name: name, kind: KindCounter, source: func() uint64 { return *p }})
}

// CounterFunc registers a counter whose value is computed on demand (for
// counters that are derived rather than stored, e.g. a cycle count held as
// a difference of two bases).
func (r *Registry) CounterFunc(name string, f func() uint64) {
	r.add(entry{name: name, kind: KindCounter, source: f})
}

// GaugeFunc registers an instantaneous value sampled on demand (queue
// occupancy, in-flight transactions).
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.add(entry{name: name, kind: KindGauge, gauge: f})
}

// Histogram registers and returns a new log2-bucketed histogram.
func (r *Registry) Histogram(name string) *Histogram {
	h := &Histogram{}
	r.add(entry{name: name, kind: KindHistogram, hist: h})
	return h
}

// Names returns all registered names of the given kind, sorted.
func (r *Registry) Names(kind Kind) []string {
	var out []string
	for _, e := range r.entries {
		if e.kind == kind {
			out = append(out, e.name)
		}
	}
	sort.Strings(out)
	return out
}

// CounterValue returns the current value of the named counter.
func (r *Registry) CounterValue(name string) (uint64, bool) {
	i, ok := r.byName[name]
	if !ok || r.entries[i].kind != KindCounter {
		return 0, false
	}
	return counterValue(r.entries[i]), true
}

// HistogramByName returns the named histogram, if registered.
func (r *Registry) HistogramByName(name string) (*Histogram, bool) {
	i, ok := r.byName[name]
	if !ok || r.entries[i].kind != KindHistogram {
		return nil, false
	}
	return r.entries[i].hist, true
}

func counterValue(e entry) uint64 {
	if e.counter != nil {
		return e.counter.Value()
	}
	return e.source()
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: make(map[string]uint64)}
	for _, e := range r.entries {
		switch e.kind {
		case KindCounter:
			s.Counters[e.name] = counterValue(e)
		case KindGauge:
			if s.Gauges == nil {
				s.Gauges = make(map[string]float64)
			}
			s.Gauges[e.name] = e.gauge()
		case KindHistogram:
			if s.Histograms == nil {
				s.Histograms = make(map[string]HistSnapshot)
			}
			s.Histograms[e.name] = e.hist.Snapshot()
		}
	}
	return s
}

// counterSnapshot fills dst (cleared first) with every counter value —
// the sampler's allocation-light inner loop reuses one scratch map.
func (r *Registry) counterSnapshot(dst map[string]uint64) {
	for _, e := range r.entries {
		if e.kind == KindCounter {
			dst[e.name] = counterValue(e)
		}
	}
}

func (r *Registry) hasKind(k Kind) bool {
	for _, e := range r.entries {
		if e.kind == k {
			return true
		}
	}
	return false
}

func (r *Registry) gaugeSnapshot(dst map[string]float64) {
	for _, e := range r.entries {
		if e.kind == KindGauge {
			dst[e.name] = e.gauge()
		}
	}
}

// Collector bundles the observable artifacts of one instrumented run: the
// registry (always) and the interval sampler (when sampling was enabled).
// sim.RunWorkload fills the zero value handed to it via sim.Config.Metrics.
type Collector struct {
	Registry *Registry
	Sampler  *Sampler
}

// Samples returns the recorded time series (nil when sampling was off).
func (c *Collector) Samples() []Sample {
	if c == nil || c.Sampler == nil {
		return nil
	}
	return c.Sampler.Samples()
}
