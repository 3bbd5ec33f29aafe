package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("test.counter")
	g := r.Gauge("test.gauge")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	g.Set(-3.5)
	if got := g.Value(); got != -3.5 {
		t.Fatalf("gauge after Set = %v, want -3.5", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w%4) + 0.5) // buckets 1,1,2,4 and overflow(3.5 -> bucket 4)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	var bucketTotal int64
	for _, c := range h.snapshot().Counts {
		bucketTotal += c
	}
	if bucketTotal != workers*per {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, workers*per)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 99, 1000} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []int64{2, 2, 1, 1} // <=1: {0.5,1}; <=10: {5,10}; <=100: {99}; overflow: {1000}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-1115.5) > 1e-9 {
		t.Fatalf("sum = %v, want 1115.5", s.Sum)
	}
}

func TestRegistryCreateOrGet(t *testing.T) {
	r := New()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter should return the same instrument per name")
	}
	if r.Gauge("y") != r.Gauge("y") {
		t.Fatal("Gauge should return the same instrument per name")
	}
	h1 := r.Histogram("z", []float64{1, 2})
	h2 := r.Histogram("z", []float64{5, 6, 7}) // first caller wins
	if h1 != h2 {
		t.Fatal("Histogram should return the same instrument per name")
	}
	if r.Tracer() != r.Tracer() {
		t.Fatal("Tracer should be a singleton per registry")
	}
	names := r.Names()
	want := []string{"x", "y", "z"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestRegistryJSONGolden(t *testing.T) {
	r := New()
	r.Counter("engine.search.total").Add(3)
	r.Gauge("train.epoch.loss").Set(0.25)
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "counters": {
    "engine.search.total": 3
  },
  "gauges": {
    "train.epoch.loss": 0.25
  },
  "histograms": {
    "lat": {
      "count": 2,
      "sum": 100.5,
      "bounds": [
        1,
        10
      ],
      "counts": [
        1,
        0,
        1
      ]
    }
  }
}
`
	if got := buf.String(); got != golden {
		t.Fatalf("JSON export mismatch:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c", []float64{1})
	tr := r.Tracer()
	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(1)
	sp := tr.Start("noop", 0)
	if sp.ID() != 0 {
		t.Fatal("nil tracer span should have ID 0")
	}
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments should read as zero")
	}
	if tr.Spans() != nil {
		t.Fatal("nil tracer should dump no spans")
	}
	s := r.Snapshot()
	if s.Counters == nil || s.Gauges == nil || s.Histograms == nil {
		t.Fatal("nil registry snapshot should carry non-nil maps")
	}
	if r.Names() != nil {
		t.Fatal("nil registry should have no names")
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram(LatencyBounds())
	c := &Counter{}
	g := &Gauge{}
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(3e-4)
		c.Inc()
		g.Set(1.5)
	}); n != 0 {
		t.Fatalf("hot-path instrument updates allocated %v times per run, want 0", n)
	}
}

func TestTracerRingRetention(t *testing.T) {
	tr := NewTracer(3)
	root := tr.Start("root", 0)
	rootID := root.ID()
	if rootID == 0 {
		t.Fatal("live span should have a non-zero ID")
	}
	child := tr.Start("child", rootID)
	child.End()
	root.End()
	for i := 0; i < 4; i++ {
		tr.Start("filler", 0).End()
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("ring retained %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.Name != "filler" {
			t.Fatalf("oldest spans should have been evicted, found %q", s.Name)
		}
	}
	// Order: oldest first, IDs ascending.
	for i := 1; i < len(spans); i++ {
		if spans[i].ID <= spans[i-1].ID {
			t.Fatalf("span IDs out of order: %d then %d", spans[i-1].ID, spans[i].ID)
		}
	}
}

func TestTracerParentLinks(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("root", 0)
	child := tr.Start("child", root.ID())
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Fatalf("child parent = %d, want root ID %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["child"].Dur <= 0 {
		t.Fatal("completed span should have positive duration")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name": "child"`) {
		t.Fatalf("trace JSON missing child span:\n%s", buf.String())
	}
}

func TestStandardBoundsAscending(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"latency":   LatencyBounds(),
		"count":     CountBounds(),
		"magnitude": MagnitudeBounds(),
	} {
		if len(bounds) == 0 {
			t.Fatalf("%s bounds empty", name)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("%s bounds not ascending at %d: %v", name, i, bounds)
			}
		}
		// Must construct a valid histogram.
		NewHistogram(bounds).Observe(1)
	}
}

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default registry should be a process-wide singleton")
	}
	c := Default().Counter("obs.test.default")
	before := c.Value()
	c.Inc()
	if Default().Counter("obs.test.default").Value() != before+1 {
		t.Fatal("Default registry counters should persist across lookups")
	}
}

func TestHistogramQuantile(t *testing.T) {
	// 100 observations spread uniformly through the (10, 20] bucket:
	// quantiles interpolate linearly between the bucket's edges.
	h := NewHistogram([]float64{10, 20, 30})
	for i := 0; i < 100; i++ {
		h.Observe(15)
	}
	s := h.snapshot()
	cases := []struct{ q, want float64 }{
		{0, 10},   // rank 0 sits at the bucket's lower edge
		{0.5, 15}, // halfway through the bucket
		{0.99, 19.9},
		{1, 20}, // the full rank reaches the upper edge
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}

	// Observations across buckets: the quantile walks cumulative counts.
	h2 := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 90; i++ {
		h2.Observe(0.5) // first bucket (0, 1]
	}
	for i := 0; i < 10; i++ {
		h2.Observe(3) // third bucket (2, 4]
	}
	s2 := h2.snapshot()
	if got := s2.Quantile(0.5); got <= 0 || got > 1 {
		t.Errorf("p50 = %v, want inside the first bucket (0, 1]", got)
	}
	if got := s2.Quantile(0.99); got <= 2 || got > 4 {
		t.Errorf("p99 = %v, want inside the third bucket (2, 4]", got)
	}

	// The overflow bucket has no upper edge: quantiles landing there
	// report the last finite bound (a deliberate underestimate).
	h3 := NewHistogram([]float64{1, 2})
	h3.Observe(100)
	if got := h3.snapshot().Quantile(0.5); math.Abs(got-2) > 1e-9 {
		t.Errorf("overflow quantile = %v, want the last bound 2", got)
	}

	// An empty snapshot has no quantiles.
	if got := NewHistogram([]float64{1}).snapshot().Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty Quantile = %v, want NaN", got)
	}
}

func TestFineLatencyBounds(t *testing.T) {
	b := FineLatencyBounds()
	if len(b) != 24 {
		t.Fatalf("len = %d, want 24", len(b))
	}
	if math.Abs(b[0]-1e-6) > 1e-18 {
		t.Errorf("first bound = %v, want 1µs", b[0])
	}
	for i := 1; i < len(b); i++ {
		if math.Abs(b[i]-2*b[i-1]) > 1e-12*b[i] {
			t.Errorf("bound %d = %v, want double its predecessor %v", i, b[i], b[i-1])
		}
	}
	// The layout must be a valid ascending histogram configuration and
	// reach far enough to hold any plausible request latency (~8s).
	NewHistogram(b).Observe(7)
	if b[len(b)-1] < 5 {
		t.Errorf("last bound = %v, want several seconds of headroom", b[len(b)-1])
	}
}
