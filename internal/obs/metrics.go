package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"pimflow/internal/num"
)

// Metrics is a thread-safe, nil-safe registry of named counters, gauges,
// and histograms. Every method is a no-op on a nil receiver, so
// instrumented code threads a possibly-nil *Metrics without conditionals;
// the nil path costs one pointer compare (benchmark-pinned in this
// package).
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*histData
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]*histData{},
	}
}

// Add increments the named counter by delta.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Inc increments the named counter by one.
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Counter returns the current value of a counter.
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Set records the named gauge's current value (last write wins).
func (m *Metrics) Set(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// Gauge returns the current value of a gauge.
func (m *Metrics) Gauge(name string) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauges[name]
}

// Exponential bucket layout: a positive sample v lands in bucket k, the
// smallest k with v <= 2^k (label "<=2^k"; fractions get negative k);
// non-positive samples share one "<=0" bucket. Buckets bucketMin through
// bucketMax — fractions down to 2^-64, magnitudes up to 2^63 — live in
// fixed arrays, so recording into an existing series touches no map;
// rarer buckets beyond them (subnormals, huge floats) keep their exact
// labels in a map allocated on first use.
const (
	bucketMin   = -64
	bucketMax   = 63
	nonPositive = math.MinInt // bucketOf's index for v <= 0 (and NaN)
	numSlots    = bucketMax - bucketMin + 2
)

// histData accumulates a histogram: summary statistics plus exponential
// (power-of-two) buckets, which are cheap, deterministic, and enough to
// see a distribution's shape in a JSON dump.
type histData struct {
	count    int64
	sum      float64
	min, max float64
	// counts[0] holds non-positive samples, counts[1+k-bucketMin] bucket
	// k. exemplars ties buckets back to concrete origins (request IDs):
	// the most recent exemplar per bucket, "" when none.
	counts    [numSlots]int64
	exemplars [numSlots]string
	// wide holds the buckets outside [bucketMin, bucketMax].
	wide map[int]bucket
}

// bucket is one non-empty histogram bucket: index, count, exemplar.
type bucket struct {
	k  int
	n  int64
	ex string
}

// Observe records one sample into the named histogram.
func (m *Metrics) Observe(name string, v float64) {
	m.ObserveExemplar(name, v, "")
}

// ObserveExemplar records one sample and, when exemplar is non-empty,
// remembers it as the bucket's most recent exemplar — the handle (e.g. a
// request ID) that ties a tail bucket back to a concrete cause.
func (m *Metrics) ObserveExemplar(name string, v float64, exemplar string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h, ok := m.hists[name]
	if !ok {
		h = &histData{min: math.Inf(1), max: math.Inf(-1)}
		m.hists[name] = h
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	k := bucketOf(v)
	if i, ok := slotOf(k); ok {
		h.counts[i]++
		if exemplar != "" {
			h.exemplars[i] = exemplar
		}
	} else {
		if h.wide == nil {
			h.wide = map[int]bucket{}
		}
		b := h.wide[k]
		b.k = k
		b.n++
		if exemplar != "" {
			b.ex = exemplar
		}
		h.wide[k] = b
	}
	m.mu.Unlock()
}

// bucketOf returns the exponential bucket index for a sample: the
// smallest k with v <= 2^k, or nonPositive for v <= 0 (and NaN).
func bucketOf(v float64) int {
	if !(v > 0) {
		return nonPositive
	}
	return int(math.Ceil(math.Log2(v)))
}

// slotOf maps a bucket index onto the fixed arrays; false means the
// bucket lives in the wide map.
func slotOf(k int) (int, bool) {
	switch {
	case k == nonPositive:
		return 0, true
	case k >= bucketMin && k <= bucketMax:
		return 1 + k - bucketMin, true
	}
	return 0, false
}

// bucketLabel renders a bucket index as its exported upper-bound label.
func bucketLabel(k int) string {
	if k == nonPositive {
		return "<=0"
	}
	return fmt.Sprintf("<=2^%d", k)
}

// buckets lists the non-empty buckets in ascending order.
func (h *histData) buckets() []bucket {
	var out []bucket
	if h.counts[0] > 0 {
		out = append(out, bucket{nonPositive, h.counts[0], h.exemplars[0]})
	}
	wide := make([]bucket, 0, len(h.wide))
	for _, b := range h.wide {
		wide = append(wide, b)
	}
	sort.Slice(wide, func(i, j int) bool { return wide[i].k < wide[j].k })
	for len(wide) > 0 && wide[0].k < bucketMin {
		out, wide = append(out, wide[0]), wide[1:]
	}
	for i := 1; i < numSlots; i++ {
		if h.counts[i] > 0 {
			out = append(out, bucket{bucketMin + i - 1, h.counts[i], h.exemplars[i]})
		}
	}
	return append(out, wide...)
}

// quantile estimates the q-quantile from the ascending non-empty
// buckets: nearest-rank bucket selection, then linear interpolation by
// rank fraction inside the winning bucket (2^(k-1), 2^k], clamped to the
// observed min/max. Power-of-two buckets bound the estimation error to
// one octave, which is enough to rank tail buckets and pick exemplars;
// exact percentiles come from the replay harness, which keeps samples.
func (h *histData) quantile(bs []bucket, q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range bs {
		if cum+b.n < rank {
			cum += b.n
			continue
		}
		if b.k == nonPositive {
			// Non-positive samples share one unbounded-below bucket; the
			// observed min is the only honest point estimate.
			return h.min
		}
		lo, hi := math.Exp2(float64(b.k-1)), math.Exp2(float64(b.k))
		v := lo + (hi-lo)*float64(rank-cum)/float64(b.n)
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

// HistogramSnapshot is an exported histogram state.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	// P50/P99/P999 are percentiles estimated from the bucket layout (see
	// histData.quantile); they are bucket-resolution estimates, not exact.
	P50  float64 `json:"p50,omitempty"`
	P99  float64 `json:"p99,omitempty"`
	P999 float64 `json:"p999,omitempty"`
	// Buckets maps upper bounds ("<=2^k", k negative for fractions, or
	// "<=0") to sample counts; the counts sum to Count.
	Buckets map[string]int64 `json:"buckets,omitempty"`
	// Exemplars maps bucket upper bounds to the most recent exemplar
	// recorded into that bucket (ObserveExemplar).
	Exemplars map[string]string `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time copy of the registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(m.counters)),
		Gauges:     make(map[string]float64, len(m.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(m.hists)),
	}
	for k, v := range m.counters {
		s.Counters[k] = v
	}
	for k, v := range m.gauges {
		s.Gauges[k] = v
	}
	for k, h := range m.hists {
		bs := h.buckets()
		hs := HistogramSnapshot{
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			Buckets: make(map[string]int64, len(bs)),
		}
		if h.count > 0 {
			hs.Mean = h.sum / float64(h.count)
			hs.P50 = h.quantile(bs, 0.50)
			hs.P99 = h.quantile(bs, 0.99)
			hs.P999 = h.quantile(bs, 0.999)
		}
		for _, b := range bs {
			hs.Buckets[bucketLabel(b.k)] = b.n
			if b.ex != "" {
				if hs.Exemplars == nil {
					hs.Exemplars = map[string]string{}
				}
				hs.Exemplars[bucketLabel(b.k)] = b.ex
			}
		}
		s.Histograms[k] = hs
	}
	return s
}

// LabeledKey canonicalizes a metric name plus label pairs into one
// registry key: "name{k1=v1,k2=v2}". Instrumentation that labels a series
// (per-model, per-stage, per-class) must build its keys through this
// helper with the pairs in one fixed order, so identical series share one
// key; WriteText renders the braces back into Prometheus-style labels.
// Label values must not contain commas or braces.
func LabeledKey(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	n := len(name) + 2
	for _, s := range kv {
		n += len(s) + 2
	}
	b.Grow(n)
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// SplitLabeledKey splits a LabeledKey-style registry key into its base
// name and label pairs; keys without a label block return nil pairs.
func SplitLabeledKey(key string) (string, [][2]string) {
	open := strings.IndexByte(key, '{')
	if open < 0 || !strings.HasSuffix(key, "}") {
		return key, nil
	}
	base := key[:open]
	var labels [][2]string
	for _, part := range strings.Split(key[open+1:len(key)-1], ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return key, nil // not a labeled key after all
		}
		labels = append(labels, [2]string{k, v})
	}
	return base, labels
}

// labelBlock renders label pairs (plus optional extras) in Prometheus
// form: `{k="v",...}`, or "" when there are none. Label names pass
// through the metric-name sanitizer; values are quoted verbatim.
func labelBlock(labels [][2]string, extra ...[2]string) string {
	all := labels
	if len(extra) > 0 {
		all = append(append(make([][2]string, 0, len(labels)+len(extra)), labels...), extra...)
	}
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strings.TrimPrefix(metricName(kv[0]), "pimflow_"))
		b.WriteByte('=')
		b.WriteString(fmt.Sprintf("%q", kv[1]))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText dumps the registry in a Prometheus-style text exposition:
// one `# TYPE` comment plus one `pimflow_<name> <value>` line per counter
// and gauge, and count/sum/min/max/mean/p50/p99/p999 plus
// `_bucket{le="..."}` lines per histogram. Registry keys built with
// LabeledKey render their labels in brace form on every line; bucket
// exemplars are appended as OpenMetrics-style `# exemplar="..."`
// trailers. Metric names are sanitized to the usual [a-zA-Z0-9_:]
// charset (dots and brackets become underscores). Lines are emitted in
// sorted name order so identical registries produce identical documents.
// The serving layer's /metrics endpoint is backed by this dump.
func (m *Metrics) WriteText(w io.Writer) error {
	if m == nil {
		return fmt.Errorf("obs: nil metrics")
	}
	s := m.Snapshot()
	var b []byte
	emit := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	typed := map[string]bool{} // labeled series of one base share a TYPE line
	emitType := func(name, kind string) {
		if !typed[name] {
			typed[name] = true
			emit("# TYPE %s %s\n", name, kind)
		}
	}
	for _, k := range num.SortedKeys(s.Counters) {
		base, labels := SplitLabeledKey(k)
		name := metricName(base)
		emitType(name, "counter")
		emit("%s%s %d\n", name, labelBlock(labels), s.Counters[k])
	}
	for _, k := range num.SortedKeys(s.Gauges) {
		base, labels := SplitLabeledKey(k)
		name := metricName(base)
		emitType(name, "gauge")
		emit("%s%s %v\n", name, labelBlock(labels), s.Gauges[k])
	}
	for _, k := range num.SortedKeys(s.Histograms) {
		h := s.Histograms[k]
		base, labels := SplitLabeledKey(k)
		name := metricName(base)
		lb := labelBlock(labels)
		emitType(name, "summary")
		emit("%s_count%s %d\n%s_sum%s %v\n%s_min%s %v\n%s_max%s %v\n%s_mean%s %v\n",
			name, lb, h.Count, name, lb, h.Sum, name, lb, h.Min, name, lb, h.Max, name, lb, h.Mean)
		emit("%s_p50%s %v\n%s_p99%s %v\n%s_p999%s %v\n",
			name, lb, h.P50, name, lb, h.P99, name, lb, h.P999)
		for _, le := range num.SortedKeys(h.Buckets) {
			emit("%s_bucket%s %d", name, labelBlock(labels, [2]string{"le", le}), h.Buckets[le])
			if ex := h.Exemplars[le]; ex != "" {
				emit(" # exemplar=%q", ex)
			}
			emit("\n")
		}
	}
	_, err := w.Write(b)
	return err
}

// metricName maps a registry key onto the Prometheus name charset under a
// pimflow_ prefix: runs of disallowed characters collapse to one
// underscore (e.g. "pim.channel_busy_cycles[02]" ->
// "pimflow_pim_channel_busy_cycles_02").
func metricName(key string) string {
	out := make([]byte, 0, len(key)+8)
	out = append(out, "pimflow_"...)
	pending := false
	for i := 0; i < len(key); i++ {
		c := key[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			pending = len(out) > len("pimflow_")
			continue
		}
		if pending {
			out = append(out, '_')
			pending = false
		}
		out = append(out, c)
	}
	return string(out)
}

// WriteJSON dumps the registry as indented JSON. Map keys are emitted in
// sorted order (encoding/json's contract), so identical registries
// produce identical documents.
func (m *Metrics) WriteJSON(w io.Writer) error {
	if m == nil {
		return fmt.Errorf("obs: nil metrics")
	}
	data, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
