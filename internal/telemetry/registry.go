// Package telemetry is the fabric-wide observability layer: a registry of
// named, labelled counters, pull gauges and histograms fed by
// instrumentation hooks in net, transport and core; the run's report series,
// one timeseries.Recorder that samples every registry metric on the
// simulation clock; a Hermes decision AuditLog; and a Report that serializes
// a full run to JSON, CSV and human-readable text.
//
// Every instrument is nil-safe: a nil *Registry hands out nil instruments,
// and calling Inc/Add/Observe on a nil instrument is a no-op. Hot paths
// therefore hold plain instrument pointers and pay only a nil check when
// telemetry is disabled.
package telemetry

import (
	"sort"
	"strings"

	"github.com/hermes-repro/hermes/internal/timeseries"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v float64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add increases the counter by n (negative deltas are ignored).
func (c *Counter) Add(n float64) {
	if c != nil && n > 0 {
		c.v += n
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram accumulates observations into fixed upper-bound buckets plus
// count/sum/min/max. An implicit +Inf bucket catches the overflow.
type Histogram struct {
	bounds []float64 // sorted upper bounds
	counts []uint64  // len(bounds)+1; last is +Inf
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// HistBucket is one exported histogram bucket.
type HistBucket struct {
	UpperBound float64 `json:"le"` // +Inf encoded as 0-count omission; see Snapshot
	Count      uint64  `json:"count"`
}

// HistogramStats is the serializable summary of a histogram.
type HistogramStats struct {
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Inf     uint64       `json:"inf,omitempty"` // samples above the last bound
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Stats exports the histogram.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	s := HistogramStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		Inf: h.counts[len(h.bounds)]}
	for i, b := range h.bounds {
		s.Buckets = append(s.Buckets, HistBucket{UpperBound: b, Count: h.counts[i]})
	}
	return s
}

// Registry is the named-instrument store. Instruments are get-or-create by
// (name, labels) key, so independent call sites share one instrument. A nil
// Registry is the disabled state: it returns nil instruments and empty
// snapshots.
type Registry struct {
	counters map[string]*Counter
	// reads holds the read function of every counter and gauge function by
	// key: what Values evaluates and series samples.
	reads map[string]func() float64
	hists map[string]*Histogram

	// series, when set, samples every metric registered from then on; see
	// RunData.Series.
	series *timeseries.Recorder
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		reads:    map[string]func() float64{},
		hists:    map[string]*Histogram{},
	}
}

// sample makes key visible to Values and the series recorder.
func (r *Registry) sample(key string, fn func() float64) {
	r.reads[key] = fn
	r.series.Register(key, fn)
}

// Key renders a metric identity as name{k=v,...} with label pairs sorted by
// key, so the same logical metric always maps to the same string.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	type kv struct{ k, v string }
	var pairs []kv
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns the counter for (name, labels), creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	k := Key(name, labels...)
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
		r.sample(k, c.Value)
	}
	return c
}

// GaugeFunc registers a pull-style gauge evaluated at snapshot time — the
// cheapest way to expose an existing counter field without touching its hot
// path. Re-registering a key replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	r.sample(Key(name, labels...), fn)
}

// Share registers fn under key on both sinks that sample metrics: as a
// gauge function on reg and as a probe on rec. Either may be nil. fn must be
// a pure read, since both sinks and Values call it.
func Share(reg *Registry, rec *timeseries.Recorder, key string, fn func() float64) {
	reg.GaugeFunc(key, fn)
	rec.Register(key, fn)
}

// Histogram returns the histogram for (name, labels) with the given sorted
// upper bounds, creating it on first use (later bounds are ignored for an
// existing histogram).
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	k := Key(name, labels...)
	h, ok := r.hists[k]
	if !ok {
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
		r.hists[k] = h
	}
	return h
}

// Values evaluates every counter and gauge function into a flat map.
// Functions are evaluated in sorted-key order so any side effects (there
// should be none) are deterministic.
func (r *Registry) Values() map[string]float64 {
	if r == nil {
		return nil
	}
	keys := make([]string, 0, len(r.reads))
	for k := range r.reads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[string]float64, len(keys))
	for _, k := range keys {
		out[k] = r.reads[k]()
	}
	return out
}

// Histograms exports every histogram's stats, keyed by metric key.
func (r *Registry) Histograms() map[string]HistogramStats {
	if r == nil || len(r.hists) == 0 {
		return nil
	}
	out := make(map[string]HistogramStats, len(r.hists))
	for k, h := range r.hists {
		out[k] = h.Stats()
	}
	return out
}
