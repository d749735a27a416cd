package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the metrics exposition golden files")

// goldenRegistry exercises every exposition path with histograms that
// hold no samples in (0, 1): plain and labeled counters and gauges,
// non-positive samples, exemplars, and buckets at and beyond the ends of
// the fixed bucket range.
func goldenRegistry() *Metrics {
	m := NewMetrics()
	m.Add("serve.requests", 41)
	m.Inc(LabeledKey("serve.outcome", "model", "mnv2-gold", "outcome", "served"))
	m.Inc(LabeledKey("serve.outcome", "model", "mnv2-gold", "outcome", "shed"))
	m.Add("pim.channel_busy_cycles[02]", 7)
	m.Set("serve.queue_depth", 3)
	m.Set("pim.channel_utilization_last", 0.625)
	for i, v := range []float64{0, -2, 1, 2, 3, 1000, 1 << 20, 1 << 40, math.Exp2(63), 1e19, 1e300} {
		m.ObserveExemplar(LabeledKey("serve.request_cycles", "model", "mnv2-gold", "slo", "gold"), v, "r00000"+string(rune('0'+i%10)))
	}
	for i := 1; i <= 300; i++ {
		m.Observe("serve.latency_cycles", float64(i*i))
	}
	m.Observe("serve.batch_size", 4)
	m.ObserveExemplar(LabeledKey("serve.stage_cycles", "model", "mnv2-gold", "slo", "gold", "stage", "queue"), 0, "r000001")
	m.ObserveExemplar(LabeledKey("serve.stage_cycles", "model", "mnv2-gold", "slo", "gold", "stage", "execute"), 61234, "r000001")
	return m
}

// TestMetricsGoldenExposition pins the /metrics text and JSON documents
// byte for byte (run with -update to rewrite the golden files).
func TestMetricsGoldenExposition(t *testing.T) {
	m := goldenRegistry()
	for _, c := range []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"metrics.golden.txt", func(b *bytes.Buffer) error { return m.WriteText(b) }},
		{"metrics.golden.json", func(b *bytes.Buffer) error { return m.WriteJSON(b) }},
	} {
		var got bytes.Buffer
		if err := c.write(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s drifted:\n--- got\n%s\n--- want\n%s", c.file, got.Bytes(), want)
		}
	}
}
