package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"pimflow/internal/load"
	"pimflow/internal/runtime"
	"pimflow/internal/serve"
)

// Live-serving load: two fixed open-loop rates, then a fixed ladder of
// rates searched for the highest rung that meets the latency limit. No
// more connections than the host has CPUs (two on the reference host).
const (
	rateLow        = 200.0 // requests per second
	rateHigh       = 500.0
	latencyLimitMs = 25.0 // p99 limit a ladder rung must meet
	httpConns      = 2
	requestTimeout = 2 * time.Second
	// httpProbe is the HTTP phase's length when it is not the named
	// workload; directCalls is the traced run's closed-loop sample size.
	httpProbe   = 10 * time.Second
	directCalls = 100
)

// ladder is the fixed rate ladder for max_rps: 5% steps from 150 to
// about 4000 requests per second.
var ladder = func() []float64 {
	var rs []float64
	for r := 150.0; r < 4100; r *= 1.05 {
		rs = append(rs, math.Round(r))
	}
	return rs
}()

// httpEnv is a live server (two mobilenet-v2 models, request log on)
// behind a loopback listener, and a client limited to httpConns
// connections.
type httpEnv struct {
	srv    *serve.Server
	web    *http.Server
	served chan error
	base   string
	client *http.Client
	models []string
}

func setupHTTP() (*httpEnv, error) {
	sc, err := load.Builtin("poisson")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{RequestLog: requestLogCapacity, Admission: serve.AdmitBlock})
	if err != nil {
		return nil, err
	}
	e := &httpEnv{srv: srv}
	if err := load.LoadModels(srv, sc); err != nil {
		e.close()
		return nil, err
	}
	for _, m := range sc.Models {
		e.models = append(e.models, m.Name)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.web = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.web.Serve(ln) }()
	e.client = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns, DisableCompression: true,
		},
	}
	return e, nil
}

func (e *httpEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e.web != nil {
		_ = e.web.Shutdown(ctx)
		<-e.served
		e.web = nil
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	_ = e.srv.Shutdown(ctx)
}

// infer posts one inference and checks the response.
func (e *httpEnv) infer(model string) error {
	resp, err := e.client.Post(e.base+"/v1/models/"+model+"/infer", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var out serve.InferResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return err
	}
	if out.Model != model || out.LatencyCycles <= 0 || out.RequestID == "" {
		return fmt.Errorf("malformed response %s", body)
	}
	return nil
}

// rateResult is one or more open-loop windows at a fixed rate.
type rateResult struct {
	rate      float64
	latMs     []float64 // from each request's due time; failures are +Inf
	lateMs    []float64 // how late each request was sent
	windowP99 []float64 // p99 of each window
	failures  int
	lastLate  float64 // lateness of the final request (a growing backlog)
}

func (r rateResult) p(q float64) float64 { return nearestRank(r.latMs, q) }

// p99 is the median over windows of each window's p99: one stall of the
// host spoils the tail of one window, not the run's figure.
func (r rateResult) p99() float64 { return median(r.windowP99) }

// meets reports whether the run met the latency limit without failures
// or a backlog that grew past the limit.
func (r rateResult) meets() bool {
	return r.failures == 0 && r.p(0.99) <= latencyLimitMs && r.lastLate <= latencyLimitMs
}

// clear reports whether one run settles its rung alone: within half the
// limit, or over twice it.
func (r rateResult) clear() bool {
	return (r.meets() && r.p(0.99) <= latencyLimitMs/2 && r.lastLate <= latencyLimitMs/2) ||
		r.p(0.99) > 2*latencyLimitMs
}

// openLoop sends requests at a fixed rate — evenly spaced due times,
// each to a model the seed picks — for the duration from httpConns
// senders. Each request is timed from when it was due, so a stalled
// sender charges its wait to every request behind it.
func (e *httpEnv) openLoop(rng *rand.Rand, rate float64, dur time.Duration) rateResult {
	// Every rate starts from a collected heap.
	goruntime.GC()
	n := int(rate * dur.Seconds())
	due := make([]time.Duration, n)
	pick := make([]string, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
		pick[i] = e.models[rng.Intn(len(e.models))]
	}
	res := rateResult{rate: rate, latMs: make([]float64, len(due)), lateMs: make([]float64, len(due))}
	var (
		next, failures atomic.Int64
		wg             sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < httpConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				err := e.infer(pick[i])
				done := time.Since(start)
				res.lateMs[i] = float64(sent-due[i]) / 1e6
				res.latMs[i] = float64(done-due[i]) / 1e6
				if err != nil {
					res.latMs[i] = math.Inf(1)
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res.failures = int(failures.Load())
	if n := len(res.lateMs); n > 0 {
		res.lastLate = res.lateMs[n-1]
	}
	res.windowP99 = []float64{res.p(0.99)}
	return res
}

// httpStats accumulates the HTTP phase across its slices.
type httpStats struct {
	rng       *rand.Rand // draws each request's model
	low, high rateResult // pooled over slices
	// The ladder search: ladder[lo] met the limit, ladder[hi] did not
	// (lo -1 and hi len(ladder) before any rung ran).
	lo, hi int
	votes  []bool // runs of the current rung: met the limit or not
	rungs  []rateResult
	// Traced runs: closed-loop single-caller samples (milliseconds).
	direct, overHTTP, executeAt []float64
}

// ladderSteps is how many ladder runs one slice makes: over the four
// slices the binary search has room to converge with repeated rungs.
const ladderSteps = 4

// httpPhase runs one slice: two windows at each fixed rate, alternating
// (25% of the slice at the low rate, 40% at the high one, pooled with the
// other slices), and the rest on the next ladder runs of the binary
// search for max_rps. A rung whose run lands near the limit runs again:
// the majority of up to three runs decides it, so neither a host stall
// nor a lucky quiet moment settles the search. The probe is httpProbe
// over all slices.
func (b *bench) httpPhase(e *httpEnv, budget time.Duration, primary bool) error {
	if budget == 0 {
		budget = httpProbe / cycles
	}
	st := &b.http
	if st.rng == nil {
		st.rng = rand.New(rand.NewSource(b.seed))
		st.lo, st.hi = -1, len(ladder)
	}
	// The p99 at the high rate needs the most samples.
	low, high := budget/8, budget/5
	step := (budget - 2*low - 2*high) / ladderSteps
	for k := 0; k < 2; k++ {
		st.low.pool(b.countRate(e.openLoop(st.rng, rateLow, low)))
		st.high.pool(b.countRate(e.openLoop(st.rng, rateHigh, high)))
	}
	for k := 0; k < ladderSteps && st.hi-st.lo > 1; k++ {
		mid := (st.lo + st.hi) / 2
		r := b.countRate(e.openLoop(st.rng, ladder[mid], step))
		st.rungs = append(st.rungs, r)
		if len(st.votes) == 0 && r.clear() {
			st.votes = []bool{r.meets(), r.meets()}
		} else {
			st.votes = append(st.votes, r.meets())
		}
		switch yes := count(st.votes, true); {
		case yes >= 2:
			st.lo, st.votes = mid, nil
		case len(st.votes)-yes >= 2:
			st.hi, st.votes = mid, nil
		}
	}
	if st.hi-st.lo > 1 || st.direct != nil {
		return nil
	}
	if st.lo < 0 {
		return fmt.Errorf("the lowest ladder rung (%g req/s) misses the %g ms p99 limit", ladder[0], latencyLimitMs)
	}
	if b.tr != nil {
		return b.directCalls(e, primary)
	}
	return nil
}

func count(vs []bool, v bool) int {
	n := 0
	for _, x := range vs {
		if x == v {
			n++
		}
	}
	return n
}

// maxRPS is the highest ladder rung that met the limit.
func (st *httpStats) maxRPS() float64 {
	if st.lo < 0 || st.hi-st.lo > 1 {
		return 0
	}
	return ladder[st.lo]
}

// pool adds another slice's samples at the same rate.
func (r *rateResult) pool(o rateResult) {
	r.rate = o.rate
	r.latMs = append(r.latMs, o.latMs...)
	r.lateMs = append(r.lateMs, o.lateMs...)
	r.windowP99 = append(r.windowP99, o.windowP99...)
	r.failures += o.failures
	r.lastLate = o.lastLate
}

func (b *bench) countRate(r rateResult) rateResult {
	b.attempted += int64(len(r.latMs))
	b.failed += int64(r.failures)
	return r
}

// directCalls measures, closed loop with one caller, a serve.Server.Infer
// call, the same request over HTTP, and one runtime.ExecuteAt of the
// served plan, interleaved.
func (b *bench) directCalls(e *httpEnv, primary bool) error {
	st := &b.http
	lm, err := e.srv.Registry().Get(e.models[0])
	if err != nil {
		return err
	}
	rt := lm.Opts.RuntimeConfig()
	rt.Profiles = e.srv.Registry().Profiles()
	rt.TraceNodesOnly = true
	timeMs := func(tr *tracer, name string, f func() error) (float64, error) {
		sec, err := timeCall(tr, name, b.tr.op(), f)
		return sec * 1e3, err
	}
	for i := 0; i < directCalls; i++ {
		ms, err := timeMs(b.tr, "serve.Server.Infer", func() error {
			_, err := e.srv.Infer(context.Background(), serve.InferRequest{Model: e.models[0]})
			return err
		})
		if err != nil {
			return err
		}
		st.direct = append(st.direct, ms)
		// Alternate traced and untraced HTTP calls: their difference is
		// the tracing overhead when serve-http is the named workload.
		tr := b.tr
		if i%2 == 1 {
			tr = nil
		}
		if ms, err = timeMs(tr, "http.Infer", func() error { return e.infer(e.models[0]) }); err != nil {
			return err
		}
		st.overHTTP = append(st.overHTTP, ms)
		if primary {
			b.overhead[tr != nil] = append(b.overhead[tr != nil], ms)
		}
		if ms, err = timeMs(b.tr, "runtime.ExecuteAt", func() error {
			_, err := runtime.ExecuteAt(lm.Graph, rt, int64(i+1)*lm.Solo.DurationCycles())
			return err
		}); err != nil {
			return err
		}
		st.executeAt = append(st.executeAt, ms)
		b.attempted += 3
	}
	return nil
}
