package metrics

import (
	"math"
	"reflect"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("frames_total", L("switch", "0"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.CounterValue("frames_total", L("switch", "0")); got != 5 {
		t.Fatalf("CounterValue = %d, want 5", got)
	}
	// Same name+labels resolves to the same cell.
	c2 := r.Counter("frames_total", L("switch", "0"))
	c2.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("dedup failed: %d, want 6", got)
	}
	// Label order must not matter.
	a := r.Counter("d", L("x", "1"), L("y", "2"))
	b := r.Counter("d", L("y", "2"), L("x", "1"))
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("label order created distinct cells")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := New()
	g := r.Gauge("depth", L("q", "7"))
	g.Set(3)
	g.Add(2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	g.SetMax(4)
	if g.Value() != 5 {
		t.Fatal("SetMax lowered the gauge")
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatal("SetMax did not raise the gauge")
	}
	if r.GaugeValue("depth", L("q", "7")) != 9 {
		t.Fatal("GaugeValue mismatch")
	}
}

func TestNilRegistryAndZeroHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []int64{1, 2})
	// All must be inert no-ops.
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	h.Observe(1)
	if c.Active() || g.Active() || h.Active() {
		t.Fatal("nil-registry handles report active")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero handles returned nonzero values")
	}
	r.Help("x", "ignored")
	if r.CounterValue("x") != 0 || r.GaugeValue("y") != 0 || r.SumCounter("x") != 0 {
		t.Fatal("nil registry reads nonzero")
	}
	if len(r.Snapshot().Families) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}

	// Zero-value handles (e.g. fields of an uninstrumented switch).
	var zc Counter
	var zg Gauge
	var zh Histogram
	zc.Inc()
	zg.SetMax(10)
	zh.Observe(10)
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for v := int64(1); v <= 10; v++ {
		h.Observe(v) // 10 obs in (…,10]
	}
	for i := 0; i < 10; i++ {
		h.Observe(50) // 10 obs in (10,100]
	}
	h.Observe(5000) // 1 obs in +Inf
	if h.Count() != 21 {
		t.Fatalf("count = %d, want 21", h.Count())
	}
	snap := r.Snapshot()
	smp := snap.Families[0].Samples[0]
	wantCounts := []uint64{10, 10, 0, 1}
	for i, c := range smp.Counts {
		if c != wantCounts[i] {
			t.Fatalf("counts = %v, want %v", smp.Counts, wantCounts)
		}
	}
	// Median falls in the (…,10] or (10,100] boundary region.
	q50 := h.Quantile(0.5)
	if q50 < 1 || q50 > 100 {
		t.Fatalf("q50 = %g, want within (1,100]", q50)
	}
	// 99th percentile lands in +Inf bucket → clamps to highest bound.
	if q := h.Quantile(0.999); q != 1000 {
		t.Fatalf("q99.9 = %g, want clamp to 1000", q)
	}
	// Quantiles must be monotone.
	prev := -math.MaxFloat64
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%g: %g < %g", q, v, prev)
		}
		prev = v
	}
}

func TestExponentialBounds(t *testing.T) {
	b := ExponentialBounds(100, 2, 4)
	want := []int64{100, 200, 400, 800}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
}

func TestSumCounter(t *testing.T) {
	r := New()
	r.Counter("drops", L("switch", "0"), L("reason", "meter")).Add(3)
	r.Counter("drops", L("switch", "1"), L("reason", "meter")).Add(4)
	r.Counter("drops", L("switch", "1"), L("reason", "gate")).Add(5)
	if got := r.SumCounter("drops"); got != 12 {
		t.Fatalf("total = %d, want 12", got)
	}
	if got := r.SumCounter("drops", L("reason", "meter")); got != 7 {
		t.Fatalf("meter total = %d, want 7", got)
	}
	if got := r.SumCounter("drops", L("switch", "1")); got != 9 {
		t.Fatalf("switch 1 total = %d, want 9", got)
	}
	if got := r.SumCounter("missing"); got != 0 {
		t.Fatalf("missing family = %d, want 0", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("m")
}

// TestHotPathAllocs enforces the acceptance criterion: the counter
// path (and the other handle operations) must not allocate.
func TestHotPathAllocs(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", ExponentialBounds(100, 4, 10))
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Fatalf("Counter.Add allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.SetMax(5) }); n != 0 {
		t.Fatalf("Gauge.SetMax allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op", n)
	}
	var zero Counter
	if n := testing.AllocsPerRun(1000, func() { zero.Inc() }); n != 0 {
		t.Fatalf("zero Counter.Inc allocates %.1f/op", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncUnbound(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("h", ExponentialBounds(100, 4, 10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) % 1_000_000)
	}
}

func TestResolveCopiesLabelsOnlyOnCreate(t *testing.T) {
	r := New()
	ls := []Label{L("switch", "0"), L("queue", "7"), L("port", "1")}
	c := r.Counter("enq", ls...)
	ls[0].Value = "9" // the registry must own its copy
	want := []Label{L("port", "1"), L("queue", "7"), L("switch", "0")}
	if got := r.byName["enq"].samples[0].labels; !reflect.DeepEqual(got, want) {
		t.Fatalf("stored labels = %v, want %v", got, want)
	}
	// Resolving an existing cell, in any label order, allocates nothing.
	allocs := testing.AllocsPerRun(100, func() {
		if r.Counter("enq", L("port", "1"), L("switch", "0"), L("queue", "7")) != c {
			t.Fatal("hit resolved a different cell")
		}
	})
	if allocs != 0 {
		t.Fatalf("resolving an existing cell allocates %.1f times", allocs)
	}
	// Past the inline label count the same key resolves the same cell.
	five := []Label{L("e", "5"), L("d", "4"), L("c", "3"), L("b", "2"), L("a", "1")}
	r.Counter("wide", five...).Inc()
	if got := r.CounterValue("wide", five[4], five[3], five[2], five[1], five[0]); got != 1 {
		t.Fatalf("five-label counter = %d, want 1", got)
	}
}
