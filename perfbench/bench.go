package main

import (
	"bytes"
	"fmt"
	"os"
	goruntime "runtime"
	"strings"
	"time"

	"pimflow/internal/experiments"
)

const (
	phaseCompile = "compile"
	phasePoisson = "poisson"
	phaseFleet   = "fleet"
	phaseHTTP    = "http"
)

var phaseOrder = []string{phaseCompile, phasePoisson, phaseFleet, phaseHTTP}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// bench is one run's state: counters, the phases' samples, and the
// metrics built from them.
type bench struct {
	seed int64
	tr   *tracer // nil in untraced runs

	attempted, failed int64
	failures          []string
	info              []string

	setupSec []float64
	// Heap allocated by the named phase, and its operations.
	allocBytes, allocOps uint64
	compile              compileStats
	poisson              replayStats
	fleet                replayStats
	http                 httpStats
	overhead             map[bool][]float64 // traced runs: op times of the named phase, by traced
	e2e                  map[string]metric
	layer                map[string]metric
}

func newBench(seed int64, traced bool) *bench {
	b := &bench{seed: seed, overhead: map[bool][]float64{}}
	if traced {
		b.tr = newTracer()
	}
	return b
}

func (b *bench) failf(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

func (b *bench) infof(format string, args ...any) {
	b.info = append(b.info, fmt.Sprintf(format, args...))
}

// env is everything the timed phases need, built by one set-up.
type env struct {
	poisson *poissonEnv
	fleet   *fleetEnv
	http    *httpEnv
}

func (e *env) close() {
	if e.fleet != nil {
		e.fleet.close()
	}
	if e.http != nil {
		e.http.close()
	}
}

// setup builds the environment setupReps times — model loads and
// deploys, trace generation, the listener — keeping the last one.
func (b *bench) setup() (*env, error) {
	var last *env
	for i := 0; i < setupReps; i++ {
		if last != nil {
			last.close()
		}
		start := time.Now()
		e := &env{}
		var err error
		if e.poisson, err = setupPoisson(b.tr, b.seed); err == nil {
			if e.fleet, err = setupFleet(b.tr, b.seed); err == nil {
				e.http, err = setupHTTP()
			}
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		b.setupSec = append(b.setupSec, time.Since(start).Seconds())
		last = e
	}
	return last, nil
}

// runPhase runs one slice of a phase: the budget for the named
// workload's phase, a probe otherwise. For the named phase it also
// counts heap allocated per operation.
func (b *bench) runPhase(p string, e *env, cycle int, budget time.Duration, primary bool) error {
	// Start every slice from a collected heap, so no phase pays for the
	// garbage of the one before it.
	goruntime.GC()
	var before goruntime.MemStats
	goruntime.ReadMemStats(&before)
	attempted := b.attempted
	var err error
	switch p {
	case phaseCompile:
		err = b.compilePhase(budget, probeOps(compileProbeRounds, cycle, primary), primary)
	case phasePoisson:
		err = b.poissonPhase(e.poisson, budget, probeOps(poissonProbeCalls, cycle, primary), primary)
	case phaseFleet:
		err = b.fleetPhase(e.fleet, budget, probeOps(fleetProbeCalls, cycle, primary), primary)
	case phaseHTTP:
		err = b.httpPhase(e.http, budget, primary)
	}
	if err != nil || !primary {
		return err
	}
	var after goruntime.MemStats
	goruntime.ReadMemStats(&after)
	ops := uint64(b.attempted - attempted)
	// A replay call is one operation of the benchmark but as many
	// operations of the program as it has requests.
	switch p {
	case phasePoisson:
		ops *= uint64(len(e.poisson.reqs))
	case phaseFleet:
		ops *= uint64(len(e.fleet.reqs))
	}
	b.allocBytes += after.TotalAlloc - before.TotalAlloc
	b.allocOps += ops
	return nil
}

// pacer paces the operations of one phase slice.
type pacer struct {
	start, mark time.Time
	budget      time.Duration
	min, n      int
}

func pace(budget time.Duration, min int) *pacer {
	now := time.Now()
	return &pacer{start: now, mark: now, budget: budget, min: min}
}

// next reports whether to run another operation: until min have run,
// then while one more as long as the last still fits in the budget.
func (p *pacer) next() bool {
	now := time.Now()
	last := now.Sub(p.mark)
	p.mark = now
	if p.n < p.min || (p.budget > 0 && now.Sub(p.start)+last <= p.budget) {
		p.n++
		return true
	}
	return false
}

// probeOps is a phase slice's minimum operation count: one for the
// named phase (its budget sets the size), the cycle's share of the probe
// otherwise.
func probeOps(probe, cycle int, primary bool) int {
	if primary {
		return 1
	}
	return probe*(cycle+1)/cycles - probe*cycle/cycles
}

// checkReport regenerates the paper-evaluation report, untimed, and
// compares it byte for byte with the committed experiments_report.txt.
func (b *bench) checkReport() {
	want, err := os.ReadFile("experiments_report.txt")
	if err != nil {
		b.failf("experiments report: %v", err)
		return
	}
	var got bytes.Buffer
	for _, e := range experiments.All() {
		res, err := e.Run()
		if err != nil {
			b.failf("experiment %s: %v", e.ID, err)
			return
		}
		got.WriteString(res.Table())
		got.WriteByte('\n')
	}
	if !bytes.Equal(got.Bytes(), want) {
		b.failf("regenerated experiments report differs from experiments_report.txt")
	}
}

// finish turns the samples into the end-to-end and per-layer metrics.
func (b *bench) finish() {
	c, p, f, h := &b.compile, &b.poisson, &b.fleet, &b.http
	sec := func(v float64) metric { return metric{v, "s"} }
	ms := func(v float64) metric { return metric{v, "ms"} }
	count := func(v float64) metric { return metric{v, "count"} }
	cycles := func(v float64) metric { return metric{v, "cycles"} }
	ratio := func(v float64) metric { return metric{v, "ratio"} }

	rep := p.first
	b.e2e = map[string]metric{
		"setup_s":        sec(median(b.setupSec)),
		"compile_s":      sec(median(c.rounds)),
		"compile_tail_s": sec(tailBeyond(c.rounds, 10)),
		"sim_cycles":     cycles(float64(c.soloSum)),
		"replay_rps":     {float64(rep.Requests) / median(p.wall), "1/s"},
		"fleet_rps":      {float64(f.first.Requests) / median(f.wall), "1/s"},
		"sim_p50_cycles": cycles(float64(rep.P50)),
		"sim_p99_cycles": cycles(float64(rep.P99)),
		"slo_attain":     ratio(sloAttainment(rep.Requests, rep.Served, rep.SLOMiss)),
		"lat_p50_ms_low": ms(h.low.p(0.50)),
		"alloc_kb_op":    {float64(b.allocBytes) / 1024 / float64(b.allocOps), "KiB/op"},
		"peak_rss_mb":    {peakRSSMiB(), "MiB"},
	}
	b.infof("compile: %d rounds, median %.4f s, tail (10 rounds beyond) %.4f s", len(c.rounds), median(c.rounds), tailBeyond(c.rounds, 10))
	b.infof("poisson replay: %d calls, whole call median %.4f s, Report.WallSeconds stops %.4f s earlier", len(p.wall), median(p.wall), median(p.post))
	b.infof("fleet replay: %d calls, whole call median %.4f s, served %d shed %d, %d cross-machine routes",
		len(f.wall), median(f.wall), f.first.Served, f.first.Shed, f.cross)
	for _, r := range append([]rateResult{h.low, h.high}, h.rungs...) {
		b.infof("http %6.0f req/s: %5d requests p50 %.3f ms p99 %.3f ms (median of %d windows %.3f ms), generator late p99 %.3f ms, %d failed, meets limit %v",
			r.rate, len(r.latMs), r.p(0.5), r.p(0.99), len(r.windowP99), r.p99(), nearestRank(r.lateMs, 0.99), r.failures, r.meets())
	}
	b.infof("search: sims per round median %.0f (min %.0f, max %.0f, quartile spread %.3f); pruned median %.0f (min %.0f, max %.0f, quartile spread %.3f)",
		median(c.sims), nearestRank(c.sims, 0), nearestRank(c.sims, 1), quartileSpread(c.sims),
		median(c.pruned), nearestRank(c.pruned, 0), nearestRank(c.pruned, 1), quartileSpread(c.pruned))
	if b.tr == nil {
		return
	}

	self := b.tr.selfTimes()
	layerSec := func(name string) metric { return sec(b.tr.medianSelf(self, name)) }
	var gap []float64
	for i := range c.loadSec {
		gap = append(gap, c.loadSec[i]-c.layerSec[i])
	}
	stages := rep.Stages
	b.layer = map[string]metric{
		"models.build_s":                layerSec("models.Build"),
		"search.run_s":                  layerSec("search.Run"),
		"search.apply_s":                layerSec("search.Apply"),
		"search.sims":                   count(median(c.sims)),
		"search.sims_spread":            ratio(quartileSpread(c.sims)),
		"search.pruned":                 count(median(c.pruned)),
		"search.pruned_spread":          ratio(quartileSpread(c.pruned)),
		"profcache.hit_ratio":           ratio(median(c.hits)),
		"pim.time_workload_s":           layerSec("codegen.TimeWorkload"),
		"verify.compiled_s":             layerSec("verify.Compiled"),
		"verify.plan_s":                 layerSec("verify.PlanSearch"),
		"verify.schedule_s":             sec(median(p.verify)),
		"verify.fleet_s":                sec(median(f.verify)),
		"runtime.execute_s":             layerSec("runtime.Execute"),
		"runtime.execute_at_ms":         ms(median(h.executeAt)),
		"graph.infer_shapes_s":          layerSec("graph.InferShapes"),
		"compile.registry_load_s":       sec(median(c.loadSec)),
		"compile.gap_s":                 sec(median(gap)),
		"load.generate_s":               layerSec("load.Generate"),
		"load.replay_s":                 sec(median(p.wall)),
		"load.post_loop_s":              sec(median(p.post)),
		"serve.lifecycle_s":             sec(median(p.wall) - median(p.noLog)),
		"fleet.replay_s":                sec(median(f.wall)),
		"fleet.post_loop_s":             sec(median(f.post)),
		"fleet.hops":                    count(float64(f.hops)),
		"fleet.shed":                    count(float64(f.first.Shed)),
		"serve.infer_ms":                ms(median(h.direct)),
		"http.overhead_ms":              ms(median(h.overHTTP) - median(h.direct)),
		"http.gen_late_p99_ms":          ms(nearestRank(h.high.lateMs, 0.99)),
		"http.max_rps":                  {h.maxRPS(), "1/s"},
		"http.p50_ms_high":              ms(h.high.p(0.50)),
		"http.p99_ms_low":               ms(h.low.p99()),
		"http.p99_ms_high":              ms(h.high.p99()),
		"serve.batches":                 count(float64(p.batches)),
		"serve.mean_batch":              metric{rep.MeanBatch, "requests"},
		"serve.leases":                  count(float64(p.leases)),
		"serve.p99_lease_wait_cycles":   cycles(float64(stages["lease_wait"].P99)),
		"serve.p99_batch_window_cycles": cycles(float64(stages["batch_window"].P99)),
		"serve.p99_execute_cycles":      cycles(float64(stages["execute"].P99)),
		"trace.overhead_pct":            {overheadPct(b.overhead), "%"},
	}
	b.infof("compile attribution: Registry.Load %.4f s per round, layer spans cover %.4f s, gap %.4f s (median of %d traced rounds)",
		median(c.loadSec), median(c.layerSec), median(gap), len(c.loadSec))
	b.infof("tracing overhead on the named phase's operation: %.2f%%", overheadPct(b.overhead))
}

// sloAttainment is the share of trace requests served within their SLO
// class; an unserved request counts as a miss.
func sloAttainment(requests, served, missed int) float64 {
	if requests == 0 {
		return 0
	}
	return float64(served-missed) / float64(requests)
}

// overheadPct is the named phase's median traced operation against its
// median untraced one, in percent.
func overheadPct(ops map[bool][]float64) float64 {
	traced, plain := median(ops[true]), median(ops[false])
	if plain == 0 {
		return 0
	}
	return (traced - plain) / plain * 100
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
