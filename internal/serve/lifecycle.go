package serve

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pimflow/internal/obs"
)

// Request outcomes recorded in the lifecycle ring. Every admitted request
// ends in exactly one of these.
const (
	OutcomeServed   = "served"   // completed (possibly past its soft SLO)
	OutcomeShed     = "shed"     // displaced by the admission shed policy
	OutcomeRejected = "rejected" // refused by a full queue (AdmitReject)
	OutcomeViolated = "violated" // virtual deadline violation at placement
	OutcomeCanceled = "canceled" // context canceled or wall deadline passed
	OutcomeDraining = "draining" // arrived during shutdown drain
	OutcomeError    = "error"    // any other failure
)

// Outcome indices: outcomeOf returns one, and each names its label in
// outcomes and its counter key in lifecycleKeys.outcome.
const (
	outServed = iota
	outShed
	outRejected
	outViolated
	outCanceled
	outDraining
	outError
	numOutcomes
)

// outcomes holds the outcome label at each outcome index.
var outcomes = [numOutcomes]string{
	outServed:   OutcomeServed,
	outShed:     OutcomeShed,
	outRejected: OutcomeRejected,
	outViolated: OutcomeViolated,
	outCanceled: OutcomeCanceled,
	outDraining: OutcomeDraining,
	outError:    OutcomeError,
}

// outcomeOf folds a completion error into its outcome index.
func outcomeOf(err error) int {
	switch {
	case err == nil:
		return outServed
	case errors.Is(err, ErrShed):
		return outShed
	case errors.Is(err, ErrQueueFull):
		return outRejected
	case errors.Is(err, ErrDeadlineViolation):
		return outViolated
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return outCanceled
	case errors.Is(err, ErrDraining):
		return outDraining
	default:
		return outError
	}
}

// StageCycles decomposes one request's virtual-time latency into the
// pipeline's stages. For served requests the identity
//
//	LatencyCycles = BatchWait + LeaseWait + Execute
//
// holds exactly: BatchWait is the wait from the request's own virtual
// arrival to its batch's arrival (the latest member's stamp), LeaseWait
// from the batch arrival to the lease start (channel-group contention),
// Execute from the lease start to the member's completion (solo latency
// plus its pipelined batch offset). Queue is identically zero on the
// virtual axis — admission is instantaneous in simulated time; the
// wall-clock queue wait lives in StageWall instead.
type StageCycles struct {
	Queue     int64 `json:"queueCycles"`
	BatchWait int64 `json:"batchWaitCycles"`
	LeaseWait int64 `json:"leaseWaitCycles"`
	Execute   int64 `json:"executeCycles"`
}

// Total returns the stage sum (the virtual end-to-end latency).
func (s StageCycles) Total() int64 {
	return s.Queue + s.BatchWait + s.LeaseWait + s.Execute
}

// stageNames orders the stages for exposition and attribution reports.
var stageNames = [...]string{"queue", "batch_window", "lease_wait", "execute"}

// byIndex returns the cycles of stageNames[i].
func (s StageCycles) byIndex(i int) int64 {
	return [...]int64{s.Queue, s.BatchWait, s.LeaseWait, s.Execute}[i]
}

// lifecycleKeys are one (model, SLO class)'s lifecycle metric keys,
// built once when the model is compiled so that completing a request
// builds no strings. TestLifecycleKeysLabels checks their names and
// label names, which LT-METRIC-KEY cannot see at the metric calls.
type lifecycleKeys struct {
	outcome [numOutcomes]string     // serve.outcome{model,outcome}
	stage   [len(stageNames)]string // serve.stage_cycles{model,slo,stage}
	request string                  // serve.request_cycles{model,slo}
}

func newLifecycleKeys(model, slo string) *lifecycleKeys {
	k := &lifecycleKeys{request: obs.LabeledKey("serve.request_cycles", "model", model, "slo", slo)}
	for i, o := range outcomes {
		k.outcome[i] = obs.LabeledKey("serve.outcome", "model", model, "outcome", o)
	}
	for i, st := range stageNames {
		k.stage[i] = obs.LabeledKey("serve.stage_cycles", "model", model, "slo", slo, "stage", st)
	}
	return k
}

// StageWall is the wall-clock side of the same journey, in microseconds:
// Queue from submission to the dispatcher pop, Batch from the pop to the
// batch flush, Service from the flush to completion. Failed requests
// carry whatever stages they reached.
type StageWall struct {
	QueueMicros   int64 `json:"queueMicros"`
	BatchMicros   int64 `json:"batchMicros"`
	ServiceMicros int64 `json:"serviceMicros"`
	TotalMicros   int64 `json:"totalMicros"`
}

// RequestSpan is one request's completed lifecycle record as kept in the
// /debug/requests ring buffer.
type RequestSpan struct {
	ID      string `json:"id"`
	Model   string `json:"model"`
	SLO     string `json:"slo,omitempty"`
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`

	ArrivalCycle  int64 `json:"arrivalCycle"`
	StartCycle    int64 `json:"startCycle,omitempty"`
	EndCycle      int64 `json:"endCycle,omitempty"`
	LatencyCycles int64 `json:"latencyCycles,omitempty"`
	BatchSize     int   `json:"batchSize,omitempty"`
	BatchIndex    int   `json:"batchIndex,omitempty"`
	SLOMiss       bool  `json:"sloMiss,omitempty"`

	Stages StageCycles `json:"stages"`
	Wall   StageWall   `json:"wall"`
}

// Lifecycle tracks request journeys when Config.RequestLog is positive:
// a fixed-size ring of completed RequestSpans (newest win), labeled
// per-stage histograms with request-ID exemplars, and request lanes in
// the shared trace. A nil *Lifecycle is fully inert, which is how the
// instrumentation stays off the hot path when request logging is
// disabled.
type Lifecycle struct {
	metrics *obs.Metrics
	trace   *obs.Trace

	ids atomic.Uint64

	mu    sync.Mutex
	buf   []RequestSpan // guarded by mu
	next  int           // guarded by mu
	total uint64        // guarded by mu
}

// newLifecycle sizes the ring; n <= 0 returns nil (tracking off).
func newLifecycle(n int, metrics *obs.Metrics, trace *obs.Trace) *Lifecycle {
	if n <= 0 {
		return nil
	}
	return &Lifecycle{metrics: metrics, trace: trace, buf: make([]RequestSpan, 0, n)}
}

// nextID mints a request ID, "r" plus the sequence number zero-padded
// to six digits. IDs are sequential per server, so a single-threaded
// replay mints a deterministic sequence.
func (l *Lifecycle) nextID() string {
	if l == nil {
		return ""
	}
	return requestID(l.ids.Add(1))
}

// requestID formats n as fmt.Sprintf("r%06d", n) does.
func requestID(n uint64) string {
	var digits, id [24]byte
	d := strconv.AppendUint(digits[:0], n, 10)
	b := append(id[:0], 'r')
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// Total returns the number of spans ever recorded (the ring keeps only
// the most recent cap).
func (l *Lifecycle) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// complete records one finished item: ring entry, labeled stage
// histograms with the request ID as exemplar, outcome counter, and (for
// served requests) a request lane on the shared trace.
func (l *Lifecycle) complete(it *item, resp *InferResponse, err error) {
	if l == nil {
		return
	}
	now := time.Now()
	sp := RequestSpan{
		ID:           it.id,
		Model:        it.req.Model,
		SLO:          it.sloName,
		ArrivalCycle: it.arrival,
	}
	outcome := outcomeOf(err)
	sp.Outcome = outcomes[outcome]
	if err != nil {
		sp.Error = err.Error()
	}
	sp.Wall.TotalMicros = micros(it.enqueued, now)
	if !it.popped.IsZero() {
		sp.Wall.QueueMicros = micros(it.enqueued, it.popped)
		if !it.flushed.IsZero() {
			sp.Wall.BatchMicros = micros(it.popped, it.flushed)
			sp.Wall.ServiceMicros = micros(it.flushed, now)
		} else {
			sp.Wall.BatchMicros = micros(it.popped, now)
		}
	} else {
		sp.Wall.QueueMicros = sp.Wall.TotalMicros
	}
	if resp != nil {
		sp.ArrivalCycle = resp.ArrivalCycle
		sp.StartCycle = resp.StartCycle
		sp.EndCycle = resp.EndCycle
		sp.LatencyCycles = resp.LatencyCycles
		sp.BatchSize = resp.BatchSize
		sp.BatchIndex = resp.BatchIndex
		sp.SLOMiss = resp.SLOMiss
		sp.Stages = StageCycles{
			BatchWait: resp.BatchWaitCycles,
			LeaseWait: resp.LeaseWaitCycles,
			Execute:   resp.ExecuteCycles,
		}
	}

	keys := it.keys
	//lint:ignore LT-METRIC-KEY built by newLifecycleKeys from constant names
	l.metrics.Inc(keys.outcome[outcome])
	if resp != nil {
		for i := range stageNames {
			//lint:ignore LT-METRIC-KEY built by newLifecycleKeys from constant names
			l.metrics.ObserveExemplar(keys.stage[i], float64(sp.Stages.byIndex(i)), sp.ID)
		}
		//lint:ignore LT-METRIC-KEY built by newLifecycleKeys from constant names
		l.metrics.ObserveExemplar(keys.request, float64(sp.LatencyCycles), sp.ID)
		if l.trace.Enabled() {
			batchArrival := sp.ArrivalCycle + sp.Stages.BatchWait
			l.trace.RequestLaneCycles(sp.ID+" "+sp.Model, "serve.request",
				sp.ArrivalCycle, sp.EndCycle,
				[]obs.LaneStage{
					{Name: "batch_window", Start: sp.ArrivalCycle, End: batchArrival},
					{Name: "lease_wait", Start: batchArrival, End: sp.StartCycle},
					{Name: "execute", Start: sp.StartCycle, End: sp.EndCycle},
				},
				map[string]any{
					"id": sp.ID, "model": sp.Model, "slo": sp.SLO,
					"batchSize": sp.BatchSize, "sloMiss": sp.SLOMiss,
				})
		}
	}

	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, sp)
	} else {
		l.buf[l.next] = sp
		l.next = (l.next + 1) % len(l.buf)
	}
	l.total++
	l.mu.Unlock()
}

// micros is the non-negative microsecond distance between two stamps.
func micros(from, to time.Time) int64 {
	if d := to.Sub(from); d > 0 {
		return int64(d / time.Microsecond)
	}
	return 0
}

// SpanFilter selects lifecycle records; zero fields match everything.
type SpanFilter struct {
	Model   string
	SLO     string
	Outcome string
	// N caps the result (newest first); 0 returns every retained span.
	N int
}

func (f SpanFilter) match(sp RequestSpan) bool {
	return (f.Model == "" || f.Model == sp.Model) &&
		(f.SLO == "" || f.SLO == sp.SLO) &&
		(f.Outcome == "" || f.Outcome == sp.Outcome)
}

// Recent returns the retained spans matching the filter, newest first.
func (l *Lifecycle) Recent(f SpanFilter) []RequestSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RequestSpan, 0, len(l.buf))
	for i := len(l.buf) - 1; i >= 0; i-- {
		sp := l.buf[(l.next+i)%len(l.buf)]
		if !f.match(sp) {
			continue
		}
		out = append(out, sp)
		if f.N > 0 && len(out) >= f.N {
			break
		}
	}
	return out
}

// Lifecycle exposes the server's request-lifecycle tracker (nil when
// Config.RequestLog is zero).
func (s *Server) Lifecycle() *Lifecycle { return s.lifecycle }

// StageBreakdown is one model's attributed latency summary for /healthz:
// per-stage quantile estimates from the labeled stage histograms.
type StageBreakdown struct {
	Count  int64                            `json:"count"`
	Stages map[string]obs.HistogramSnapshot `json:"stages"`
}

// LatencyBreakdown summarizes the labeled stage histograms per model.
// The map is empty until requests complete (or when request logging is
// off — the histograms are only fed by the lifecycle tracker).
func (s *Server) LatencyBreakdown() map[string]StageBreakdown {
	out := map[string]StageBreakdown{}
	snap := s.cfg.Metrics.Snapshot()
	for key, h := range snap.Histograms {
		base, labels := obs.SplitLabeledKey(key)
		if base != "serve.stage_cycles" {
			continue
		}
		var model, stage string
		for _, kv := range labels {
			switch kv[0] {
			case "model":
				model = kv[1]
			case "stage":
				stage = kv[1]
			}
		}
		if model == "" || stage == "" {
			continue
		}
		b, ok := out[model]
		if !ok {
			b = StageBreakdown{Stages: map[string]obs.HistogramSnapshot{}}
		}
		b.Stages[stage] = h
		if h.Count > b.Count {
			b.Count = h.Count
		}
		out[model] = b
	}
	return out
}
