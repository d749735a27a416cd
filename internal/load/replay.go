package load

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pimflow/internal/num"
	"pimflow/internal/obs"
	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// ClassStats is the per-SLO-class slice of a replay report.
type ClassStats struct {
	Served   int   `json:"served"`
	SLOMiss  int   `json:"sloMiss"`
	Target   int64 `json:"targetCycles,omitempty"`
	P50      int64 `json:"p50Cycles"`
	P99      int64 `json:"p99Cycles"`
	P999     int64 `json:"p999Cycles"`
	MaxCycle int64 `json:"maxCycles"`
}

// Report summarizes one trace replay. All latency figures are virtual
// cycles (completion minus arrival on the simulated timeline); only
// WallSeconds and ReqPerSec touch the wall clock, and the determinism
// tests exclude them.
type Report struct {
	Scenario string `json:"scenario"`
	Requests int    `json:"requests"`
	Served   int    `json:"served"`
	Shed     int    `json:"shed"`
	Rejected int    `json:"rejected"`
	Violated int    `json:"violated"`
	Errors   int    `json:"errors"`
	SLOMiss  int    `json:"sloMiss"`

	P50            int64   `json:"p50Cycles"`
	P99            int64   `json:"p99Cycles"`
	P999           int64   `json:"p999Cycles"`
	MaxLatency     int64   `json:"maxCycles"`
	MeanLatency    float64 `json:"meanCycles"`
	MeanBatch      float64 `json:"meanBatch"`
	MakespanCycles int64   `json:"makespanCycles"`

	// Stages holds independent per-stage latency distributions across the
	// served requests; Attributed holds the exact stage split of the
	// requests at the p50/p99/p999 ranks, whose stages sum to the
	// corresponding end-to-end percentile by construction.
	Stages     map[string]StageStats `json:"stages,omitempty"`
	Attributed *Attributed           `json:"attributed,omitempty"`

	Classes map[string]ClassStats `json:"classes,omitempty"`

	// Certified reports a schedule certificate checked clean against the
	// SR-* rules (set when the server ran with serve.Config.Certify);
	// CertifiedLeases is the number of leases the certificate covered.
	Certified       bool `json:"certified,omitempty"`
	CertifiedLeases int  `json:"certifiedLeases,omitempty"`

	WallSeconds float64 `json:"wallSeconds"`
	ReqPerSec   float64 `json:"reqPerSec"`
}

// StageStats is one pipeline stage's latency distribution over the
// served requests (virtual cycles).
type StageStats struct {
	P50  int64   `json:"p50Cycles"`
	P99  int64   `json:"p99Cycles"`
	P999 int64   `json:"p999Cycles"`
	Max  int64   `json:"maxCycles"`
	Mean float64 `json:"meanCycles"`
}

// AttributedRequest is the stage decomposition of one concrete request:
// the request whose end-to-end latency sits at a percentile rank. Its
// stages partition LatencyCycles exactly, so "where did the p99 go" has
// a sum-consistent answer (independent per-stage percentiles do not add
// up — they belong to different requests).
type AttributedRequest struct {
	RequestID     string            `json:"requestId,omitempty"`
	Model         string            `json:"model"`
	LatencyCycles int64             `json:"latencyCycles"`
	Stages        serve.StageCycles `json:"stages"`
}

// Attributed carries the stage splits at the standard percentile ranks.
type Attributed struct {
	P50  AttributedRequest `json:"p50"`
	P99  AttributedRequest `json:"p99"`
	P999 AttributedRequest `json:"p999"`
}

// latRec is one served request's latency plus its attribution payload.
type latRec struct {
	lat    int64
	id     string
	model  string
	stages serve.StageCycles
}

func recOf(resp *serve.InferResponse) latRec {
	return latRec{
		lat:   resp.LatencyCycles,
		id:    resp.RequestID,
		model: resp.Model,
		stages: serve.StageCycles{
			BatchWait: resp.BatchWaitCycles,
			LeaseWait: resp.LeaseWaitCycles,
			Execute:   resp.ExecuteCycles,
		},
	}
}

// percentile returns the q-quantile of sorted latencies (nearest-rank).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), q)]
}

// LoadModels loads every scenario model into the server's registry.
func LoadModels(srv *serve.Server, sc Scenario) error {
	for _, m := range sc.Models {
		if _, err := srv.Registry().Load(m.Spec()); err != nil {
			return fmt.Errorf("load: model %q: %w", m.Name, err)
		}
	}
	return nil
}

// Replay drives the trace through the server deterministically: one
// Machine performs admission and continuous batching in virtual time on
// a single goroutine and hands each formed batch to Server.InferBatch.
// Identical scenario, identical report (modulo wall-clock fields).
//
//pimflow:deterministic
func Replay(srv *serve.Server, sc Scenario, reqs []Request) (*Report, error) {
	sc = sc.WithDefaults()
	rep := &Report{Scenario: sc.Name, Requests: len(reqs), Classes: map[string]ClassStats{}}
	stats := NewCollector(sc, len(reqs))
	m, err := NewMachine(srv, sc, func(_ *Pending[struct{}], resp *serve.InferResponse, err error) {
		stats.Record(rep, resp, err)
	})
	if err != nil {
		return nil, err
	}
	started := time.Now()
	for _, r := range reqs {
		if err := m.Admit(r.Model, r.Cycle, struct{}{}); err != nil {
			return nil, err
		}
	}
	if err := Drain([]*Machine[struct{}]{m}, nil); err != nil {
		return nil, err
	}

	rep.WallSeconds = time.Since(started).Seconds()
	stats.Finish(rep)
	if err := certify(srv, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// certify checks the server's schedule certificate against the SR-*
// rules when the server is recording one (serve.Config.Certify). A
// replay whose schedule fails verification is not a result — it is a
// scheduler bug — so the whole run errors.
func certify(srv *serve.Server, rep *Report) error {
	if !srv.Certifying() {
		return nil
	}
	cert := srv.Certificate()
	if diags := verify.Schedule(cert); len(diags) > 0 {
		return fmt.Errorf("load: schedule certificate (%d leases, %d requests): %w",
			len(cert.Leases), len(cert.Requests), verify.AsError(diags))
	}
	rep.Certified = true
	rep.CertifiedLeases = len(cert.Leases)
	return nil
}

// rankIndex is the nearest-rank index of the q-quantile among n sorted
// values (n > 0), the convention percentile uses.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// attributedAt returns the stage split of the request at the q-quantile
// rank of the records ordered by (latency, request ID), ties on both in
// append order — the same nearest-rank convention as percentile, so its
// LatencyCycles equals the reported percentile and its stages sum to it
// exactly. sorted holds the records' latencies in ascending order; only
// the records tied on the rank's latency are ordered, not all of them.
func attributedAt(recs []latRec, sorted []int64, q float64) AttributedRequest {
	i := rankIndex(len(sorted), q)
	lat := sorted[i]
	first, _ := slices.BinarySearch(sorted, lat)
	var ties []latRec
	for _, r := range recs {
		if r.lat == lat {
			ties = append(ties, r)
		}
	}
	slices.SortStableFunc(ties, func(a, b latRec) int { return strings.Compare(a.id, b.id) })
	r := ties[i-first]
	return AttributedRequest{RequestID: r.id, Model: r.model, LatencyCycles: r.lat, Stages: r.stages}
}

// distribution summarizes sorted (ascending, non-empty) values.
func distribution(sorted []int64) StageStats {
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	return StageStats{
		P50:  percentile(sorted, 0.50),
		P99:  percentile(sorted, 0.99),
		P999: percentile(sorted, 0.999),
		Max:  sorted[len(sorted)-1],
		Mean: float64(sum) / float64(len(sorted)),
	}
}

// stageStats computes each stage's independent distribution.
//
//pimflow:deterministic
func stageStats(recs []latRec) map[string]StageStats {
	var cols [4][]int64
	for c := range cols {
		cols[c] = make([]int64, len(recs))
	}
	for i, r := range recs {
		cols[0][i], cols[1][i], cols[2][i], cols[3][i] = r.stages.Queue, r.stages.BatchWait, r.stages.LeaseWait, r.stages.Execute
	}
	out := make(map[string]StageStats, len(cols))
	for c, name := range [...]string{"queue", "batch_window", "lease_wait", "execute"} {
		slices.Sort(cols[c])
		out[name] = distribution(cols[c])
	}
	return out
}

// finishReport folds the collected latencies into percentiles, the
// per-stage distributions, and the attributed percentile splits.
//
//pimflow:deterministic
func finishReport(rep *Report, recs []latRec, classLat map[string][]int64, batchSum, makespan int64) {
	lat := make([]int64, len(recs))
	for i, r := range recs {
		lat[i] = r.lat
	}
	slices.Sort(lat)
	if n := len(recs); n > 0 {
		all := distribution(lat)
		rep.P50, rep.P99, rep.P999 = all.P50, all.P99, all.P999
		rep.MaxLatency, rep.MeanLatency = all.Max, all.Mean
		rep.MeanBatch = float64(batchSum) / float64(n)
		rep.Stages = stageStats(recs)
		rep.Attributed = &Attributed{
			P50:  attributedAt(recs, lat, 0.50),
			P99:  attributedAt(recs, lat, 0.99),
			P999: attributedAt(recs, lat, 0.999),
		}
	}
	rep.MakespanCycles = makespan
	for _, cls := range num.SortedKeys(classLat) {
		ls := classLat[cls]
		slices.Sort(ls)
		cs := rep.Classes[cls]
		cs.P50 = percentile(ls, 0.50)
		cs.P99 = percentile(ls, 0.99)
		cs.P999 = percentile(ls, 0.999)
		cs.MaxCycle = ls[len(ls)-1]
		rep.Classes[cls] = cs
	}
	if rep.WallSeconds > 0 {
		rep.ReqPerSec = float64(rep.Served) / rep.WallSeconds
	}
}

// ReplayLive pushes the trace through the concurrent request path —
// Server.Submit/Wait from `clients` goroutines, the admission queue, the
// continuous batcher, and the worker pool — and reports the same virtual-
// time statistics. Batch composition depends on goroutine interleaving,
// so the report is NOT run-to-run deterministic; it exists for soak and
// race coverage and for wall-clock throughput measurement.
func ReplayLive(srv *serve.Server, sc Scenario, reqs []Request, clients int) (*Report, error) {
	sc = sc.WithDefaults()
	if clients <= 0 {
		clients = 8
	}
	rep := &Report{Scenario: sc.Name, Requests: len(reqs), Classes: map[string]ClassStats{}}
	var (
		mu      sync.Mutex
		stats   = NewCollector(sc, len(reqs))
		next    atomic.Int64
		pending sync.WaitGroup
	)
	started := time.Now()
	var submitters sync.WaitGroup
	for c := 0; c < clients; c++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				p, err := srv.Submit(context.Background(), serve.InferRequest{Model: r.Model, ArrivalCycle: r.Cycle})
				if err != nil {
					mu.Lock()
					stats.Record(rep, nil, err)
					mu.Unlock()
					continue
				}
				pending.Add(1)
				go func() {
					defer pending.Done()
					resp, err := p.Wait(context.Background())
					mu.Lock()
					stats.Record(rep, resp, err)
					mu.Unlock()
				}()
			}
		}()
	}
	submitters.Wait()
	// Every request is now queued or batched; close out held batches so
	// waiters finish without a shutdown.
	srv.FlushBatches()
	pending.Wait()
	rep.WallSeconds = time.Since(started).Seconds()
	stats.Finish(rep)
	return rep, nil
}

// Run is the one-call harness: build a server for the scenario, load its
// models, generate the trace, replay it deterministically, and shut the
// server down. The returned report is reproducible for a fixed scenario.
func Run(sc Scenario) (*Report, error) {
	return RunWithOptions(sc, RunOptions{})
}

// RunOptions extends Run with observability sinks.
type RunOptions struct {
	// Trace, when non-nil, collects the replay's simulated-timeline and
	// request-lane events (request lanes require RequestLog > 0).
	Trace *obs.Trace
	// RequestLog sizes the server's lifecycle ring: requests get IDs
	// (threaded into the report's attributed percentiles and the trace's
	// request lanes). Zero keeps lifecycle tracking off.
	RequestLog int
	// Execute forces plan execution during the replay (so the trace
	// carries the GPU/PIM timeline, not just lease arithmetic); the
	// scenario's Execute flag turns it on too.
	Execute bool
	// Certify turns on schedule-certificate recording: the replay fails
	// unless the executed schedule passes every SR-* rule, and the report
	// carries the certification summary (Certified, CertifiedLeases).
	Certify bool
}

// RunWithOptions is Run with a shared trace and request-lifecycle
// tracking. The report stays deterministic for a fixed scenario: IDs are
// minted sequentially on the single replay goroutine.
func RunWithOptions(sc Scenario, opts RunOptions) (*Report, error) {
	sc = sc.WithDefaults()
	if opts.Execute {
		sc.Execute = true
	}
	adm, err := serve.ParseAdmissionPolicy(sc.Admission)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{
		QueueDepth: sc.QueueDepth,
		Admission:  adm,
		Trace:      opts.Trace,
		RequestLog: opts.RequestLog,
		Certify:    opts.Certify,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown(context.Background())
	if err := LoadModels(srv, sc); err != nil {
		return nil, err
	}
	reqs, err := Generate(sc)
	if err != nil {
		return nil, err
	}
	return Replay(srv, sc, reqs)
}
