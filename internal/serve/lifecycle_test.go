package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"pimflow/internal/obs"
)

// TestStageDecompositionPartitionsLatency pins the attribution identity:
// for every served request BatchWait + LeaseWait + Execute equals the
// end-to-end virtual latency exactly, and BatchWait + LeaseWait equals
// the pre-existing QueueCycles.
func TestStageDecompositionPartitionsLatency(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 4, RequestLog: 16})
	reqs := []InferRequest{
		{Model: "toy-a", ArrivalCycle: 100},
		{Model: "toy-a", ArrivalCycle: 250},
		{Model: "toy-a", ArrivalCycle: 400},
	}
	outs, err := s.InferBatch(context.Background(), reqs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("member %d: %v", i, o.Err)
		}
		r := o.Resp
		if got := r.BatchWaitCycles + r.LeaseWaitCycles + r.ExecuteCycles; got != r.LatencyCycles {
			t.Errorf("member %d: stages sum to %d, latency %d", i, got, r.LatencyCycles)
		}
		if got := r.BatchWaitCycles + r.LeaseWaitCycles; got != r.QueueCycles {
			t.Errorf("member %d: wait stages sum to %d, queueCycles %d", i, got, r.QueueCycles)
		}
		if r.RequestID == "" {
			t.Errorf("member %d: no request ID with RequestLog on", i)
		}
	}
	// The latest member forms the batch: its batch wait is zero; the
	// earliest member waited 300 cycles for it.
	if outs[2].Resp.BatchWaitCycles != 0 {
		t.Errorf("latest member batch wait = %d, want 0", outs[2].Resp.BatchWaitCycles)
	}
	if outs[0].Resp.BatchWaitCycles != 300 {
		t.Errorf("earliest member batch wait = %d, want 300", outs[0].Resp.BatchWaitCycles)
	}
}

// TestLifecycleRingRecordsOutcomes drives served and violated requests
// through the pipeline and checks the ring, filters, and ID minting.
func TestLifecycleRingRecordsOutcomes(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 2, RequestLog: 8})
	ctx := context.Background()
	if _, err := s.InferBatch(ctx, []InferRequest{{Model: "toy-a", ArrivalCycle: 10}}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	// An impossible virtual deadline violates at placement.
	outs, err := s.InferBatch(ctx, []InferRequest{{Model: "toy-b", ArrivalCycle: 20, DeadlineCycles: 1}}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil {
		t.Fatal("impossible deadline served")
	}

	lc := s.Lifecycle()
	if lc == nil {
		t.Fatal("lifecycle off despite RequestLog")
	}
	if lc.Total() != 2 {
		t.Fatalf("recorded %d spans, want 2", lc.Total())
	}
	all := lc.Recent(SpanFilter{})
	if len(all) != 2 {
		t.Fatalf("ring holds %d spans, want 2", len(all))
	}
	// Newest first: the violated toy-b request leads.
	if all[0].Outcome != OutcomeViolated || all[0].Model != "toy-b" {
		t.Errorf("newest span %+v, want violated toy-b", all[0])
	}
	if all[1].Outcome != OutcomeServed || all[1].Stages.Total() != all[1].LatencyCycles {
		t.Errorf("served span %+v: stage total %d vs latency %d", all[1], all[1].Stages.Total(), all[1].LatencyCycles)
	}
	if all[0].ID == all[1].ID || all[0].ID == "" {
		t.Errorf("IDs not unique: %q %q", all[0].ID, all[1].ID)
	}
	// Filters.
	if got := lc.Recent(SpanFilter{Outcome: OutcomeServed}); len(got) != 1 || got[0].Model != "toy-a" {
		t.Errorf("outcome filter: %+v", got)
	}
	if got := lc.Recent(SpanFilter{Model: "toy-b"}); len(got) != 1 || got[0].Outcome != OutcomeViolated {
		t.Errorf("model filter: %+v", got)
	}
	if got := lc.Recent(SpanFilter{N: 1}); len(got) != 1 {
		t.Errorf("N filter returned %d", len(got))
	}
}

// TestLifecycleRingWraps overflows the ring and checks only the newest
// cap spans are retained.
func TestLifecycleRingWraps(t *testing.T) {
	s := newTestServer(t, Config{RequestLog: 3})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := s.InferBatch(ctx, []InferRequest{{Model: "toy-a", ArrivalCycle: int64(10 + i)}}, BatchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	lc := s.Lifecycle()
	if lc.Total() != 5 {
		t.Fatalf("total %d, want 5", lc.Total())
	}
	spans := lc.Recent(SpanFilter{})
	if len(spans) != 3 {
		t.Fatalf("ring holds %d, want 3", len(spans))
	}
	var ids []string
	for _, sp := range spans {
		ids = append(ids, sp.ID)
	}
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] > ids[j] }) {
		t.Errorf("spans not newest-first: %v", ids)
	}
	if ids[0] != "r000005" || ids[2] != "r000003" {
		t.Errorf("ring kept %v, want r000005..r000003", ids)
	}
}

// debugRequestsDoc mirrors the /debug/requests JSON envelope; RequestSpan
// round-trips through its own JSON tags, so decoding into it is the
// shape contract.
type debugRequestsDoc struct {
	Total    uint64        `json:"total"`
	Returned int           `json:"returned"`
	Requests []RequestSpan `json:"requests"`
}

// TestDebugRequestsGoldenShape locks the /debug/requests JSON shape:
// envelope keys, per-span keys, and the stage object layout.
func TestDebugRequestsGoldenShape(t *testing.T) {
	s := newTestServer(t, Config{RequestLog: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.InferBatch(context.Background(), []InferRequest{{Model: "toy-a", ArrivalCycle: 50}}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/debug/requests?model=toy-a&outcome=served")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	var doc debugRequestsDoc
	body := json.NewDecoder(resp.Body)
	if err := body.Decode(&raw); err != nil {
		t.Fatal(err)
	}
	whole, _ := json.Marshal(raw)
	if err := json.Unmarshal(whole, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"total", "returned", "requests"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("envelope missing %q", key)
		}
	}
	if doc.Returned != 1 || len(doc.Requests) != 1 {
		t.Fatalf("returned %d spans: %+v", doc.Returned, doc)
	}

	// Golden key shape of one span, wall stamps zeroed (they are the only
	// nondeterministic fields).
	sp := doc.Requests[0]
	sp.Wall = StageWall{}
	spJSON, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(spJSON, &keys); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"id", "model", "slo", "outcome", "arrivalCycle", "startCycle", "endCycle", "latencyCycles", "batchSize", "stages", "wall"} {
		if _, ok := keys[want]; !ok {
			t.Errorf("span missing key %q: %s", want, spJSON)
		}
	}
	stages, ok := keys["stages"].(map[string]any)
	if !ok {
		t.Fatalf("stages not an object: %s", spJSON)
	}
	for _, want := range []string{"queueCycles", "batchWaitCycles", "leaseWaitCycles", "executeCycles"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("stages missing %q: %s", want, spJSON)
		}
	}

	// Bad n parameter and disabled-tracking behavior.
	if resp, err := ts.Client().Get(ts.URL + "/debug/requests?n=x"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad n: status %d", resp.StatusCode)
		}
	}
}

// TestDebugRequestsDisabled pins the off state: /debug/requests is 404
// and responses carry no request ID.
func TestDebugRequestsDisabled(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 when request logging is off", resp.StatusCode)
	}
	outs, err := s.InferBatch(context.Background(), []InferRequest{{Model: "toy-a"}}, BatchOptions{})
	if err != nil || outs[0].Err != nil {
		t.Fatal(err, outs[0].Err)
	}
	if outs[0].Resp.RequestID != "" {
		t.Errorf("request ID %q minted with logging off", outs[0].Resp.RequestID)
	}
}

// TestStageHistogramsAndBreakdown checks the labeled stage histograms,
// their exemplars, and the /healthz latency-breakdown projection.
func TestStageHistogramsAndBreakdown(t *testing.T) {
	s := newTestServer(t, Config{RequestLog: 8})
	if _, err := s.InferBatch(context.Background(), []InferRequest{{Model: "toy-a", ArrivalCycle: 10}}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics().Snapshot()
	key := obs.LabeledKey("serve.stage_cycles", "model", "toy-a", "slo", "best-effort", "stage", "execute")
	h, ok := snap.Histograms[key]
	if !ok {
		var have []string
		for k := range snap.Histograms {
			have = append(have, k)
		}
		t.Fatalf("no %q histogram; have %v", key, have)
	}
	if h.Count != 1 {
		t.Errorf("execute stage count %d", h.Count)
	}
	var exemplar string
	for _, id := range h.Exemplars {
		exemplar = id
	}
	if exemplar != "r000001" {
		t.Errorf("exemplar %q, want r000001", exemplar)
	}

	bd := s.LatencyBreakdown()
	b, ok := bd["toy-a"]
	if !ok {
		t.Fatalf("no toy-a breakdown: %v", bd)
	}
	if b.Count != 1 || len(b.Stages) != 4 {
		t.Errorf("breakdown %+v, want count 1 and 4 stages", b)
	}
	for _, st := range stageNames {
		if _, ok := b.Stages[st]; !ok {
			t.Errorf("breakdown missing stage %q", st)
		}
	}
}

// TestRequestLaneInTrace checks that a served request shows up as a
// request lane spanning arrival to completion in the shared trace.
func TestRequestLaneInTrace(t *testing.T) {
	tr := obs.NewTrace()
	s := newTestServer(t, Config{RequestLog: 8, Trace: tr})
	outs, err := s.InferBatch(context.Background(), []InferRequest{{Model: "toy-a", ArrivalCycle: 1000}}, BatchOptions{})
	if err != nil || outs[0].Err != nil {
		t.Fatal(err, outs[0].Err)
	}
	r := outs[0].Resp
	var lane, stages int
	for _, e := range tr.Events() {
		if e.PID != obs.PIDRequests || e.Phase != "X" {
			continue
		}
		switch e.Cat {
		case "serve.request":
			lane++
			if e.TS != float64(r.ArrivalCycle)/1e3 {
				t.Errorf("lane ts %v, arrival %d", e.TS, r.ArrivalCycle)
			}
			if got := e.TS + e.Dur; got != float64(r.EndCycle)/1e3 {
				t.Errorf("lane end %v, endCycle %d", got, r.EndCycle)
			}
		case "serve.request.stage":
			stages++
		}
	}
	if lane != 1 {
		t.Fatalf("request lanes = %d, want 1", lane)
	}
	if stages == 0 {
		t.Error("no stage slices on the request lane")
	}
}

// TestMetricsJSONNegotiation checks /metrics.json and the Accept header
// route to the JSON registry dump while plain /metrics stays text.
func TestMetricsJSONNegotiation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	get := func(url, accept string) (string, string) {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp.Header.Get("Content-Type"), string(buf[:n])
	}

	if ct, body := get(ts.URL+"/metrics", ""); ct != "text/plain; version=0.0.4; charset=utf-8" || json.Valid([]byte(body)) {
		t.Errorf("plain /metrics: content type %q, json=%v", ct, json.Valid([]byte(body)))
	}
	for _, variant := range []struct{ url, accept string }{
		{ts.URL + "/metrics.json", ""},
		{ts.URL + "/metrics", "application/json"},
	} {
		ct, body := get(variant.url, variant.accept)
		if ct != "application/json" {
			t.Errorf("%s (Accept=%q): content type %q", variant.url, variant.accept, ct)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Errorf("%s: not a metrics snapshot: %v", variant.url, err)
		}
		if snap.Counters["serve.requests"] != 0 && snap.Counters == nil {
			t.Errorf("unexpected snapshot %+v", snap)
		}
	}
}

// TestFinishOffPathAllocFree proves item completion allocates nothing
// when request logging is off — the lifecycle hook must cost a nil check
// and nothing else.
func TestFinishOffPathAllocFree(t *testing.T) {
	it := &item{reply: make(chan result, 1)}
	resp := &InferResponse{}
	allocs := testing.AllocsPerRun(200, func() {
		it.finish(resp, nil)
		<-it.reply
	})
	if allocs != 0 {
		t.Fatalf("off-path finish allocates %v per op, want 0", allocs)
	}
}

// TestFinishServedPathAllocFree extends the pin to the request-log-on
// path: a served completion with metrics on and no trace records its
// ring span, outcome counter and labeled histograms (series existing)
// without allocating.
func TestFinishServedPathAllocFree(t *testing.T) {
	lc := newLifecycle(8, obs.NewMetrics(), nil)
	it := &item{
		req: InferRequest{Model: "toy-a"}, reply: make(chan result, 1),
		id: "r000001", sloName: "gold", keys: newLifecycleKeys("toy-a", "gold"), lc: lc,
	}
	resp := &InferResponse{
		Model: "toy-a", ArrivalCycle: 100, StartCycle: 400, EndCycle: 1000, LatencyCycles: 900,
		BatchWaitCycles: 100, LeaseWaitCycles: 200, ExecuteCycles: 600, BatchSize: 2,
	}
	it.finish(resp, nil) // creates the series
	<-it.reply
	allocs := testing.AllocsPerRun(200, func() {
		it.finish(resp, nil)
		<-it.reply
	})
	if allocs != 0 {
		t.Fatalf("served finish with metrics on allocates %v per op, want 0", allocs)
	}
	if got := lc.metrics.Counter(obs.LabeledKey("serve.outcome", "model", "toy-a", "outcome", OutcomeServed)); got != 202 {
		t.Fatalf("served outcome counter = %d, want 202", got)
	}
}

// TestRequestIDFormat pins the strconv ID formatting to the Sprintf
// format it replaced, across the six-digit padding boundary.
func TestRequestIDFormat(t *testing.T) {
	ns := []uint64{0, 1, 9, 10, 99999, 999999, 1000000, 1234567, math.MaxUint64}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 1000; i++ {
		ns = append(ns, uint64(rng.Int63n(int64(1)<<uint(rng.Intn(48)+1))))
	}
	for _, n := range ns {
		if got, want := requestID(n), fmt.Sprintf("r%06d", n); got != want {
			t.Fatalf("requestID(%d) = %q, want %q", n, got, want)
		}
	}
	lc := newLifecycle(1, nil, nil)
	if a, b := lc.nextID(), lc.nextID(); a != "r000001" || b != "r000002" {
		t.Fatalf("nextID sequence %q %q", a, b)
	}
}

// TestOutcomeOfLabels pins each completion error, bare and wrapped, to
// its outcome label: the index outcomeOf returns selects both the span's
// Outcome and the serve.outcome counter key.
func TestOutcomeOfLabels(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, OutcomeServed},
		{ErrShed, OutcomeShed},
		{ErrQueueFull, OutcomeRejected},
		{ErrDeadlineViolation, OutcomeViolated},
		{context.Canceled, OutcomeCanceled},
		{context.DeadlineExceeded, OutcomeCanceled},
		{ErrDraining, OutcomeDraining},
		{fmt.Errorf("boom"), OutcomeError},
	}
	for _, c := range cases {
		if got := outcomes[outcomeOf(c.err)]; got != c.want {
			t.Errorf("outcome of %v = %q, want %q", c.err, got, c.want)
		}
		if c.err == nil {
			continue
		}
		if got := outcomes[outcomeOf(fmt.Errorf("wrapped: %w", c.err))]; got != c.want {
			t.Errorf("outcome of wrapped %v = %q, want %q", c.err, got, c.want)
		}
	}
	keys := newLifecycleKeys("toy-a", "gold")
	for i, o := range outcomes {
		if want := obs.LabeledKey("serve.outcome", "model", "toy-a", "outcome", o); keys.outcome[i] != want {
			t.Errorf("outcome key %d = %q, want %q", i, keys.outcome[i], want)
		}
	}
}

// TestLifecycleKeysLabels checks that every prebuilt lifecycle key
// splits into its constant metric name and label names. The metric
// calls in Lifecycle.complete take these keys from fields, out of
// LT-METRIC-KEY's sight, so this test keeps the label set bounded.
func TestLifecycleKeysLabels(t *testing.T) {
	keys := newLifecycleKeys("toy-a", "gold")
	check := func(key, base string, labels ...[2]string) {
		t.Helper()
		gotBase, gotLabels := obs.SplitLabeledKey(key)
		if gotBase != base || fmt.Sprint(gotLabels) != fmt.Sprint(labels) {
			t.Errorf("key %q splits into %q %v, want %q %v", key, gotBase, gotLabels, base, labels)
		}
	}
	for i, o := range outcomes {
		check(keys.outcome[i], "serve.outcome", [2]string{"model", "toy-a"}, [2]string{"outcome", o})
	}
	for i, st := range stageNames {
		check(keys.stage[i], "serve.stage_cycles",
			[2]string{"model", "toy-a"}, [2]string{"slo", "gold"}, [2]string{"stage", st})
	}
	check(keys.request, "serve.request_cycles", [2]string{"model", "toy-a"}, [2]string{"slo", "gold"})
}

// BenchmarkFinishRequestLogOff is the off-path cost of the lifecycle
// hook: a nil check on top of the reply-channel send.
func BenchmarkFinishRequestLogOff(b *testing.B) {
	it := &item{reply: make(chan result, 1)}
	resp := &InferResponse{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it.finish(resp, nil)
		<-it.reply
	}
}
