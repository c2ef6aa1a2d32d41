// Package metrics is the dataplane telemetry registry: named
// counters, gauges and fixed-bucket histograms with Prometheus and
// JSON exporters. It is designed for a hot path that runs millions of
// events per second of wall time:
//
//   - Instruments are resolved to handles once, at switch (or
//     subsystem) construction time. A handle is one pointer; an
//     increment is one nil check plus one memory write — no map
//     lookups, no interface calls, no allocation.
//   - The zero value of every handle is a valid no-op, so an
//     uninstrumented dataplane (nil *Registry) pays only the nil
//     check. Instrumentation sites never need their own guards.
//   - Registration is idempotent: asking for the same name + label
//     set returns a handle onto the same cell, so shared resources
//     (an SMS buffer pool serving every port) can be instrumented
//     from several sites without double counting.
//
// The simulation is single-threaded, so handle operations are
// deliberately unsynchronized; registration and snapshotting take the
// registry mutex and may run from other goroutines (e.g. a progress
// reporter).
package metrics

import (
	"fmt"
	"sync"
)

// Label is one name/value pair qualifying an instrument.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind classifies an instrument family.
type Kind string

// Instrument kinds, named after their Prometheus exposition types.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing counter handle. The zero
// value is a no-op.
type Counter struct{ v *uint64 }

// Inc adds one.
func (c Counter) Inc() {
	if c.v != nil {
		*c.v++
	}
}

// Add adds n.
func (c Counter) Add(n uint64) {
	if c.v != nil {
		*c.v += n
	}
}

// Active reports whether the handle is bound to a registry cell.
func (c Counter) Active() bool { return c.v != nil }

// Value returns the current count (0 for an unbound handle).
func (c Counter) Value() uint64 {
	if c.v == nil {
		return 0
	}
	return *c.v
}

// Gauge is a settable signed instrument handle. The zero value is a
// no-op.
type Gauge struct{ v *int64 }

// Set stores v.
func (g Gauge) Set(v int64) {
	if g.v != nil {
		*g.v = v
	}
}

// Add adjusts the gauge by d.
func (g Gauge) Add(d int64) {
	if g.v != nil {
		*g.v += d
	}
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water update used by queue and heap depth instrumentation.
func (g Gauge) SetMax(v int64) {
	if g.v != nil && v > *g.v {
		*g.v = v
	}
}

// Active reports whether the handle is bound to a registry cell.
func (g Gauge) Active() bool { return g.v != nil }

// Value returns the current value (0 for an unbound handle).
func (g Gauge) Value() int64 {
	if g.v == nil {
		return 0
	}
	return *g.v
}

// Exemplar is the worst exemplar-bearing observation of a histogram
// sample: the value plus an opaque label locating the event (e.g.
// "flow=17 seq=412") and the instant it happened. The JSON snapshot
// exports it; the Prometheus 0.0.4 text format has no exemplar syntax
// and stays unchanged.
type Exemplar struct {
	Value int64  `json:"value"`
	Label string `json:"label"`
	At    int64  `json:"at"`
}

// histData is the backing store of one histogram sample.
type histData struct {
	bounds []int64  // sorted upper bounds; an implicit +Inf bucket follows
	counts []uint64 // len(bounds)+1
	sum    float64
	count  uint64
	ex     Exemplar
	exSet  bool
}

// Histogram is a fixed-bucket distribution handle. The zero value is
// a no-op.
type Histogram struct{ h *histData }

// Observe records v into its bucket.
func (h Histogram) Observe(v int64) {
	d := h.h
	if d == nil {
		return
	}
	// Linear scan: bucket lists are short (≤ ~16) and the branch
	// predictor does well on latency distributions; no allocation.
	i := 0
	for i < len(d.bounds) && v > d.bounds[i] {
		i++
	}
	d.counts[i]++
	d.sum += float64(v)
	d.count++
}

// ObserveExemplar is Observe plus exemplar retention: when v is the
// largest exemplar-bearing observation the sample has seen, (label, at)
// is kept as its exemplar. Strictly-greater-wins, so among equal worst
// values the first observed survives — which keeps serial and
// sweep-order-merged parallel runs byte-identical.
func (h Histogram) ObserveExemplar(v int64, label string, at int64) {
	h.Observe(v)
	d := h.h
	if d == nil {
		return
	}
	if !d.exSet || v > d.ex.Value {
		d.ex = Exemplar{Value: v, Label: label, At: at}
		d.exSet = true
	}
}

// Exemplar returns the sample's retained exemplar, if any.
func (h Histogram) Exemplar() (Exemplar, bool) {
	if h.h == nil || !h.h.exSet {
		return Exemplar{}, false
	}
	return h.h.ex, true
}

// Active reports whether the handle is bound to a registry cell.
func (h Histogram) Active() bool { return h.h != nil }

// Count returns the number of observations.
func (h Histogram) Count() uint64 {
	if h.h == nil {
		return 0
	}
	return h.h.count
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the bucket containing the target rank. Values in the +Inf
// bucket clamp to the highest finite bound.
func (h Histogram) Quantile(q float64) float64 {
	if h.h == nil {
		return 0
	}
	return quantile(h.h.bounds, h.h.counts, h.h.count, q)
}

// quantile is the shared bucket-interpolation estimator (also used on
// snapshots).
func quantile(bounds []int64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			return float64(bounds[len(bounds)-1])
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(bounds[i-1])
		}
		hi := float64(bounds[i])
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return float64(bounds[len(bounds)-1])
}

// ExponentialBounds returns n upper bounds starting at start and
// multiplying by factor — the usual latency bucket layout.
func ExponentialBounds(start int64, factor float64, n int) []int64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("metrics: invalid exponential bounds")
	}
	out := make([]int64, n)
	f := float64(start)
	for i := range out {
		out[i] = int64(f)
		f *= factor
	}
	return out
}

// sample is one labeled cell of a family.
type sample struct {
	labels []Label
	c      *uint64
	g      *int64
	h      *histData
}

// family groups every sample of one metric name.
type family struct {
	name    string
	help    string
	kind    Kind
	bounds  []int64 // histogram families share bucket layout
	samples []*sample
	byKey   map[string]*sample
}

// Registry owns instrument cells. A nil *Registry is valid: every
// lookup returns an unbound (no-op) handle.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Help attaches an explanatory string to a metric name, emitted as
// the Prometheus # HELP line. Safe to call before or after the first
// instrument registration.
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		f.help = help
		return
	}
	f := &family{name: name, help: help, byKey: make(map[string]*sample)}
	r.byName[name] = f
	r.families = append(r.families, f)
}

// maxInlineLabels is the label count registration sorts on the stack;
// every instrumentation site uses at most four.
const maxInlineLabels = 4

// sortLabels copies labels into buf (growing it only past its
// capacity) and sorts the copy by key. The insertion sort is stable,
// so labels sharing a key keep their order.
func sortLabels(buf, labels []Label) []Label {
	sorted := append(buf[:0], labels...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Key < sorted[j-1].Key; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted
}

// appendLabelKey appends the dedup key of a sorted label set to b.
func appendLabelKey(b []byte, labels []Label) []byte {
	for _, l := range labels {
		b = append(b, l.Key...)
		b = append(b, 1)
		b = append(b, l.Value...)
		b = append(b, 0)
	}
	return b
}

// lookup finds or creates the cell for (name, labels) of the given
// kind. Kind mismatches on an existing family panic: they are
// programming errors at instrumentation sites.
func (r *Registry) lookup(name string, kind Kind, bounds []int64, labels []Label) *sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, byKey: make(map[string]*sample)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind == "" {
		f.kind = kind
		f.bounds = bounds
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	// Sort and key on stack buffers; the lookup's string(key)
	// conversion does not copy, so a hit allocates nothing.
	var lbuf [maxInlineLabels]Label
	var kbuf [128]byte
	sorted := sortLabels(lbuf[:], labels)
	key := appendLabelKey(kbuf[:0], sorted)
	if s, ok := f.byKey[string(key)]; ok {
		return s
	}
	s := &sample{labels: append([]Label(nil), sorted...)}
	switch kind {
	case KindCounter:
		s.c = new(uint64)
	case KindGauge:
		s.g = new(int64)
	case KindHistogram:
		s.h = &histData{bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
	}
	f.byKey[string(key)] = s
	f.samples = append(f.samples, s)
	return s
}

// Counter resolves (or creates) a counter cell and returns its
// handle. A nil registry returns a no-op handle.
func (r *Registry) Counter(name string, labels ...Label) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{v: r.lookup(name, KindCounter, nil, labels).c}
}

// Gauge resolves (or creates) a gauge cell and returns its handle.
func (r *Registry) Gauge(name string, labels ...Label) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{v: r.lookup(name, KindGauge, nil, labels).g}
}

// Histogram resolves (or creates) a histogram cell with the given
// upper bounds (first registration wins the bucket layout) and
// returns its handle.
func (r *Registry) Histogram(name string, bounds []int64, labels ...Label) Histogram {
	if r == nil {
		return Histogram{}
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s bounds not strictly increasing", name))
		}
	}
	return Histogram{h: r.lookup(name, KindHistogram, bounds, labels).h}
}

// CounterValue reads a counter cell without creating it; missing
// cells read as 0. Intended for tests and report generation.
func (r *Registry) CounterValue(name string, labels ...Label) uint64 {
	if s := r.find(name, labels); s != nil && s.c != nil {
		return *s.c
	}
	return 0
}

// GaugeValue reads a gauge cell without creating it.
func (r *Registry) GaugeValue(name string, labels ...Label) int64 {
	if s := r.find(name, labels); s != nil && s.g != nil {
		return *s.g
	}
	return 0
}

// SumCounter totals every sample of a counter family whose labels
// include the given subset — e.g. all drop counters of one reason
// across switches.
func (r *Registry) SumCounter(name string, subset ...Label) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok || f.kind != KindCounter {
		return 0
	}
	var total uint64
	for _, s := range f.samples {
		if labelsInclude(s.labels, subset) {
			total += *s.c
		}
	}
	return total
}

// labelsInclude reports whether have contains every label of want.
func labelsInclude(have, want []Label) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (r *Registry) find(name string, labels []Label) *sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		return nil
	}
	var lbuf [maxInlineLabels]Label
	var kbuf [128]byte
	key := appendLabelKey(kbuf[:0], sortLabels(lbuf[:], labels))
	return f.byKey[string(key)]
}
