package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilMetricsIsSafe(t *testing.T) {
	var m *Metrics
	m.Inc("a")
	m.Add("a", 5)
	m.Set("g", 1)
	m.Observe("h", 2)
	if m.Counter("a") != 0 || m.Gauge("g") != 0 {
		t.Error("nil metrics returned non-zero")
	}
	if s := m.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Error("nil metrics snapshot not empty")
	}
	if err := m.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Error("nil metrics WriteJSON should error")
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	m := NewMetrics()
	m.Inc("sims")
	m.Add("sims", 2)
	m.Set("busy", 0.75)
	m.Set("busy", 0.5) // last write wins
	for _, v := range []float64{1, 2, 3, 4} {
		m.Observe("probes", v)
	}
	if got := m.Counter("sims"); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if got := m.Gauge("busy"); got != 0.5 {
		t.Errorf("gauge = %v, want 0.5", got)
	}
	s := m.Snapshot()
	h := s.Histograms["probes"]
	if h.Count != 4 || h.Sum != 10 || h.Min != 1 || h.Max != 4 || h.Mean != 2.5 {
		t.Errorf("histogram summary %+v", h)
	}
	// 1 -> <=2^0, 2 -> <=2^1, 3 and 4 -> <=2^2.
	if h.Buckets["<=2^0"] != 1 || h.Buckets["<=2^1"] != 1 || h.Buckets["<=2^2"] != 2 {
		t.Errorf("histogram buckets %v", h.Buckets)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, nonPositive}, {-3, nonPositive}, {math.NaN(), nonPositive},
		{0.07, -3}, {0.2, -2}, {0.5, -1}, {1, 0}, {2, 1}, {3, 2}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestFractionalBuckets pins the labels of samples in (0, 1): each power
// of two below 1 is its own bucket, distinct from the non-positive one,
// and the bucket counts sum to Count in every snapshot. (All of (0, 0.5]
// used to share the "<=0" label, and Snapshot overwrote that entry in map
// order, so its count changed from run to run.)
func TestFractionalBuckets(t *testing.T) {
	m := NewMetrics()
	for _, v := range []float64{0.07, 0.07, 0.2, 0.4, 0.4, 0.4, 0, -1, 0.75} {
		m.Observe("frac", v)
	}
	want := map[string]int64{"<=2^-3": 2, "<=2^-2": 1, "<=2^-1": 3, "<=2^0": 1, "<=0": 2}
	for i := 0; i < 50; i++ {
		h := m.Snapshot().Histograms["frac"]
		var sum int64
		for label, n := range h.Buckets {
			sum += n
			if want[label] != n {
				t.Fatalf("snapshot %d: bucket %q = %d, want %d (%v)", i, label, n, want[label], h.Buckets)
			}
		}
		if sum != h.Count || len(h.Buckets) != len(want) {
			t.Fatalf("snapshot %d: buckets %v sum to %d, count %d", i, h.Buckets, sum, h.Count)
		}
	}
}

// TestWideBuckets covers the buckets beyond the fixed array range: they
// keep their exact labels and order into the quantile estimate.
func TestWideBuckets(t *testing.T) {
	m := NewMetrics()
	m.ObserveExemplar("w", 1e-30, "lo")
	m.ObserveExemplar("w", 1e19, "hi")
	m.Observe("w", 1e19)
	m.Observe("w", 1e300)
	h := m.Snapshot().Histograms["w"]
	if h.Buckets["<=2^-99"] != 1 || h.Buckets["<=2^64"] != 2 || h.Buckets["<=2^997"] != 1 {
		t.Fatalf("wide buckets %v", h.Buckets)
	}
	if h.Exemplars["<=2^-99"] != "lo" || h.Exemplars["<=2^64"] != "hi" {
		t.Fatalf("wide exemplars %v", h.Exemplars)
	}
	if h.P50 <= math.Exp2(63) || h.P50 > math.Exp2(64) || h.P999 != 1e300 {
		t.Fatalf("wide quantiles p50 %v p999 %v", h.P50, h.P999)
	}
}

// TestObserveExemplarLabeledAllocFree pins recording into an existing
// labeled series at zero allocations: the bucket arrays are fixed.
func TestObserveExemplarLabeledAllocFree(t *testing.T) {
	m := NewMetrics()
	key := LabeledKey("serve.stage_cycles", "model", "mnv2-gold", "slo", "gold", "stage", "execute")
	v := 1.0
	m.ObserveExemplar(key, v, "r000001")
	allocs := testing.AllocsPerRun(200, func() {
		v *= 1.7
		m.ObserveExemplar(key, v, "r000002")
	})
	if allocs != 0 {
		t.Fatalf("labeled ObserveExemplar allocates %v per op, want 0", allocs)
	}
}

// BenchmarkObserveExemplarLabeled is the per-sample cost of a labeled
// histogram series with exemplars, as the request lifecycle records it.
func BenchmarkObserveExemplarLabeled(b *testing.B) {
	m := NewMetrics()
	key := LabeledKey("serve.stage_cycles", "model", "mnv2-gold", "slo", "gold", "stage", "execute")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ObserveExemplar(key, float64(1+i%100_000), "r000001")
	}
}

func TestMetricsJSONDeterministic(t *testing.T) {
	build := func() []byte {
		m := NewMetrics()
		m.Add("b", 2)
		m.Add("a", 1)
		m.Set("z", 3)
		m.Observe("h", 7)
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, two := build(), build()
	if !bytes.Equal(one, two) {
		t.Error("identical registries serialized differently")
	}
	var s Snapshot
	if err := json.Unmarshal(one, &s); err != nil {
		t.Fatalf("metrics dump is not valid JSON: %v", err)
	}
	if s.Counters["a"] != 1 || s.Counters["b"] != 2 || s.Gauges["z"] != 3 {
		t.Errorf("round-trip mismatch: %+v", s)
	}
}

func TestMetricsConcurrentUse(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Inc("n")
				m.Observe("h", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("n"); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if h := m.Snapshot().Histograms["h"]; h.Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count)
	}
}

func TestHistogramInfinityFreeOnEmpty(t *testing.T) {
	m := NewMetrics()
	m.Observe("h", 5)
	h := m.Snapshot().Histograms["h"]
	if math.IsInf(h.Min, 0) || math.IsInf(h.Max, 0) {
		t.Errorf("min/max not finite after observation: %+v", h)
	}
}

func TestWriteTextExposition(t *testing.T) {
	m := NewMetrics()
	m.Add("serve.requests", 3)
	m.Set("serve.queue_depth", 2)
	m.Observe("serve.latency_cycles", 10)
	m.Observe("serve.latency_cycles", 1000)
	m.Add("pim.channel_busy_cycles[02]", 7)

	var b strings.Builder
	if err := m.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE pimflow_serve_requests counter\npimflow_serve_requests 3\n",
		"# TYPE pimflow_serve_queue_depth gauge\npimflow_serve_queue_depth 2\n",
		"pimflow_serve_latency_cycles_count 2\n",
		"pimflow_serve_latency_cycles_sum 1010\n",
		`pimflow_serve_latency_cycles_bucket{le="<=2^10"} 1`,
		"pimflow_pim_channel_busy_cycles_02 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic output for identical registries.
	var b2 strings.Builder
	if err := m.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Fatal("WriteText not deterministic")
	}
}

func TestWriteTextNil(t *testing.T) {
	var m *Metrics
	if err := m.WriteText(io.Discard); err == nil {
		t.Fatal("nil metrics should error")
	}
}

func TestLabeledKeyRoundTrip(t *testing.T) {
	key := LabeledKey("serve.stage_cycles", "model", "mobilenet-gold", "slo", "gold", "stage", "lease_wait")
	if key != "serve.stage_cycles{model=mobilenet-gold,slo=gold,stage=lease_wait}" {
		t.Fatalf("key = %q", key)
	}
	base, labels := SplitLabeledKey(key)
	if base != "serve.stage_cycles" || len(labels) != 3 ||
		labels[0] != [2]string{"model", "mobilenet-gold"} ||
		labels[2] != [2]string{"stage", "lease_wait"} {
		t.Fatalf("split = %q %v", base, labels)
	}
	// Unlabeled keys pass through.
	if base, labels := SplitLabeledKey("serve.requests"); base != "serve.requests" || labels != nil {
		t.Fatalf("unlabeled split = %q %v", base, labels)
	}
	if LabeledKey("plain") != "plain" {
		t.Fatal("LabeledKey without pairs should be the bare name")
	}
}

func TestWriteTextLabeledSeries(t *testing.T) {
	m := NewMetrics()
	m.Observe(LabeledKey("serve.stage_cycles", "model", "toy-gold", "stage", "execute"), 100)
	m.Observe(LabeledKey("serve.stage_cycles", "model", "toy-gold", "stage", "lease_wait"), 900)
	m.Inc(LabeledKey("serve.outcome", "outcome", "shed"))

	var b strings.Builder
	if err := m.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`pimflow_serve_stage_cycles_count{model="toy-gold",stage="execute"} 1`,
		`pimflow_serve_stage_cycles_bucket{model="toy-gold",stage="lease_wait",le="<=2^10"} 1`,
		`pimflow_serve_outcome{outcome="shed"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("labeled exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per base name, shared by all labeled series.
	if got := strings.Count(out, "# TYPE pimflow_serve_stage_cycles summary"); got != 1 {
		t.Fatalf("TYPE lines for shared base = %d, want 1:\n%s", got, out)
	}
}

func TestHistogramQuantileEstimation(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 1000; i++ {
		m.Observe("lat", float64(i))
	}
	h := m.Snapshot().Histograms["lat"]
	// The true p50 is 500 (bucket (256,512]); the estimate must land in
	// that bucket, and p99 (true 990) inside (512,1024].
	if h.P50 <= 256 || h.P50 > 512 {
		t.Fatalf("p50 estimate %v outside its bucket (256,512]", h.P50)
	}
	if h.P99 <= 512 || h.P99 > 1024 {
		t.Fatalf("p99 estimate %v outside its bucket (512,1024]", h.P99)
	}
	if !(h.P50 <= h.P99 && h.P99 <= h.P999 && h.P999 <= h.Max) {
		t.Fatalf("quantile estimates out of order: %+v", h)
	}
	// Estimates clamp to the observed range.
	m2 := NewMetrics()
	m2.Observe("one", 3)
	h2 := m2.Snapshot().Histograms["one"]
	if h2.P50 != 3 || h2.P999 != 3 {
		t.Fatalf("single-sample quantiles not clamped to the sample: %+v", h2)
	}
}

func TestObserveExemplar(t *testing.T) {
	m := NewMetrics()
	m.ObserveExemplar("lat", 100, "r1")
	m.ObserveExemplar("lat", 120, "r2") // same bucket: last write wins
	m.ObserveExemplar("lat", 100000, "r9")
	m.Observe("lat", 90) // no exemplar: must not clobber
	h := m.Snapshot().Histograms["lat"]
	if h.Exemplars["<=2^7"] != "r2" {
		t.Fatalf("bucket exemplar = %q, want r2 (%v)", h.Exemplars["<=2^7"], h.Exemplars)
	}
	if h.Exemplars["<=2^17"] != "r9" {
		t.Fatalf("tail bucket exemplar = %q, want r9", h.Exemplars["<=2^17"])
	}
	var b strings.Builder
	if err := m.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `pimflow_lat_bucket{le="<=2^17"} 1 # exemplar="r9"`) {
		t.Fatalf("exemplar trailer missing:\n%s", b.String())
	}
	// Nil-safety.
	var nilM *Metrics
	nilM.ObserveExemplar("x", 1, "r0")
}
