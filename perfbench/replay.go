package main

import (
	"context"
	"encoding/json"
	"time"

	"pimflow/internal/fleet"
	"pimflow/internal/load"
	"pimflow/internal/obs"
	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// Replay sizes: the Poisson trace is stretched to about 100k requests;
// the fleet trace is 20k requests at a rate whose bursts overflow the
// 64-deep queues. The probe counts are each replay phase's size when it
// is not the named workload.
const (
	poissonRequests    = 100_000
	fleetRequests      = 20_000
	fleetRate          = 1.5 // requests per million virtual cycles
	poissonProbeCalls  = 3
	fleetProbeCalls    = 4
	requestLogCapacity = 512
)

// replayStats accumulates one replay phase.
type replayStats struct {
	wall    []float64 // whole Replay call, seconds
	post    []float64 // whole call minus Report.WallSeconds
	noLog   []float64 // traced runs: whole call with the request log off
	verify  []float64 // traced runs: the certificate re-checked from outside
	first   *load.Report
	digest  string
	batches int64 // Poisson: batches placed by the first replay
	leases  int64 // Poisson: leases placed by the first replay
	hops    int64 // fleet: hops routed by the first replay
	cross   int   // fleet: routes whose hops ran on different machines
}

// poissonEnv is the Poisson replay's input: the builtin scenario (two
// mobilenet-v2 instances, gold and bronze, 4 req/Mcycle, continuous
// batching) at the run's seed, its trace, and the models compiled once.
type poissonEnv struct {
	sc     load.Scenario
	reqs   []load.Request
	models []*serve.LoadedModel
}

func setupPoisson(tr *tracer, seed int64) (*poissonEnv, error) {
	sc, err := load.Builtin("poisson")
	if err != nil {
		return nil, err
	}
	sc.Name, sc.Seed, sc.Requests = "replay-poisson", seed, poissonRequests
	srv, err := serve.NewServer(serve.Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown(context.Background())
	env := &poissonEnv{sc: sc}
	if err := load.LoadModels(srv, sc); err != nil {
		return nil, err
	}
	for _, m := range sc.Models {
		lm, err := srv.Registry().Get(m.Name)
		if err != nil {
			return nil, err
		}
		env.models = append(env.models, lm)
	}
	err = tr.do("load.Generate", 0, tr.op(), func() (err error) {
		env.reqs, err = load.Generate(sc)
		return err
	})
	return env, err
}

// poissonServer is a fresh certifying server holding the compiled models.
func (e *poissonEnv) server(requestLog int) (*serve.Server, error) {
	adm, err := serve.ParseAdmissionPolicy(e.sc.Admission)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{
		QueueDepth: e.sc.QueueDepth, Admission: adm, RequestLog: requestLog, Certify: true,
	})
	if err != nil {
		return nil, err
	}
	for _, lm := range e.models {
		if err := srv.Registry().Install(lm); err != nil {
			srv.Shutdown(context.Background())
			return nil, err
		}
	}
	return srv, nil
}

// poissonPhase replays the Poisson trace on fresh servers, timing the
// whole load.Replay call (Report.WallSeconds stops before
// Collector.Finish and certification).
func (b *bench) poissonPhase(e *poissonEnv, budget time.Duration, minCalls int, primary bool) error {
	st := &b.poisson
	for p := pace(budget, minCalls); p.next(); {
		i := len(st.wall) + len(st.noLog)
		// Traced runs cycle through a traced call, the same call
		// untraced (the difference is the tracing overhead), and a call
		// with the request log off (the difference is the
		// lifecycle-recording cost).
		tr, requestLog := b.tr, requestLogCapacity
		if b.tr != nil && i%3 > 0 {
			tr = nil
			if i%3 == 2 {
				requestLog = 0
			}
		}
		srv, err := e.server(requestLog)
		if err != nil {
			return err
		}
		op := b.tr.op()
		start := time.Now()
		var rep *load.Report
		err = tr.do("load.Replay", 0, op, func() (err error) {
			rep, err = load.Replay(srv, e.sc, e.reqs)
			return err
		})
		wall := time.Since(start).Seconds()
		b.attempted++
		if err != nil {
			b.failed++
			srv.Shutdown(context.Background())
			return err
		}
		if requestLog == 0 {
			st.noLog = append(st.noLog, wall)
		} else {
			st.wall = append(st.wall, wall)
			st.post = append(st.post, wall-rep.WallSeconds)
			if primary && b.tr != nil {
				b.overhead[tr != nil] = append(b.overhead[tr != nil], wall)
			}
		}
		b.checkReplay("poisson", st, rep)
		if st.batches == 0 {
			st.batches = srv.Metrics().Snapshot().Histograms["serve.batch_size"].Count
			st.leases = srv.Scheduler().Stats().Placed
		}
		if tr != nil {
			sec, err := timeCall(tr, "verify.Schedule", op, func() error {
				return verify.AsError(verify.Schedule(srv.Certificate()))
			})
			if err != nil {
				b.failf("poisson schedule certificate: %v", err)
			}
			st.verify = append(st.verify, sec)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

// checkReplay checks one replay report: every request accounted for,
// the certificate checked clean, and the virtual results identical to
// the phase's first replay.
func (b *bench) checkReplay(name string, st *replayStats, rep *load.Report) {
	if n := rep.Served + rep.Shed + rep.Rejected + rep.Violated + rep.Errors; n != rep.Requests {
		b.failf("%s replay: served %d + shed %d + rejected %d + violated %d + errors %d = %d, want %d requests",
			name, rep.Served, rep.Shed, rep.Rejected, rep.Violated, rep.Errors, n, rep.Requests)
	}
	if !rep.Certified {
		b.failf("%s replay: schedule certificate not checked", name)
	}
	d := virtualDigest(rep)
	if st.first == nil {
		st.first, st.digest = rep, d
		return
	}
	if d != st.digest {
		b.failf("%s replay: virtual results differ between repetitions", name)
	}
}

// virtualDigest is the report with its wall-clock fields and request IDs
// removed: everything that must repeat exactly for one trace.
func virtualDigest(rep *load.Report) string {
	c := *rep
	c.WallSeconds, c.ReqPerSec = 0, 0
	if c.Attributed != nil {
		at := *c.Attributed
		at.P50.RequestID, at.P99.RequestID, at.P999.RequestID = "", "", ""
		c.Attributed = &at
	}
	data, err := json.Marshal(c)
	if err != nil {
		return err.Error()
	}
	return string(data)
}

// fleetEnv is the fleet replay's input: two machines; bursty (two-state
// MMPP) arrivals over mobilenet-v2 gold and bronze plus a "chain"
// sequence graph (efficientnet-v1-b0 then mnasnet-1.0) whose hops land
// on different machines.
type fleetEnv struct {
	sc   fleet.Scenario
	reqs []load.Request
	// first is the fleet built during set-up; later calls build their
	// own (a fleet's schedulers carry the state of its replay).
	first *fleet.Fleet
	mets  *obs.Metrics
}

func fleetScenario(seed int64) fleet.Scenario {
	// Slice sizes decide placement (best-fit bin-packing, in deploy
	// order): both mobilenets (4+4 channels each) share m0, the
	// efficientnet stage (10+10) only fits m1, and the mnasnet stage
	// (8+8) then only fits m0, so every chain route crosses machines.
	model := func(name, model, slo string, total int) load.ModelLoad {
		return load.ModelLoad{Name: name, Model: model, Policy: "PIMFlow", TotalChannels: total, PIMChannels: total / 2,
			SLO: slo, MaxBatch: 8, WindowCycles: 200_000}
	}
	return fleet.Scenario{
		Scenario: load.Scenario{
			Name: "fleet-bursty", Seed: seed, Requests: fleetRequests, Process: "bursty",
			RatePerMCycle: fleetRate, BurstFactor: 8, BurstDwell: 1_000_000, ZipfS: 1,
			QueueDepth: 64, Admission: "shed-oldest",
			Models: []load.ModelLoad{
				model("mobilenet-gold", "mobilenet-v2", "gold", 8),
				model("mobilenet-bronze", "mobilenet-v2", "bronze", 8),
				{Name: "chain"},
			},
		},
		Machines: 2,
		Backends: []load.ModelLoad{
			model("efficientnet", "efficientnet-v1-b0", "bronze", 20),
			model("mnasnet", "mnasnet-1.0", "bronze", 16),
		},
		Graphs: []fleet.Graph{{Name: "chain", Root: "root", Nodes: []fleet.GraphNode{
			{Name: "root", Type: "sequence", Steps: []fleet.GraphStep{{Model: "efficientnet"}, {Model: "mnasnet"}}},
		}}},
		Certify: true,
	}
}

func setupFleet(tr *tracer, seed int64) (*fleetEnv, error) {
	e := &fleetEnv{sc: fleetScenario(seed)}
	var err error
	e.first, e.mets, err = e.build()
	if err != nil {
		return nil, err
	}
	err = tr.do("load.Generate", 0, tr.op(), func() (err error) {
		e.reqs, err = load.Generate(e.sc.Scenario)
		return err
	})
	return e, err
}

func (e *fleetEnv) build() (*fleet.Fleet, *obs.Metrics, error) {
	mets := obs.NewMetrics()
	f, err := fleet.NewScenarioFleet(e.sc, mets, nil)
	return f, mets, err
}

func (e *fleetEnv) close() {
	if e.first != nil {
		e.first.Shutdown(context.Background())
		e.first = nil
	}
}

// fleetPhase replays the bursty trace through two-machine fleets,
// timing the whole fleet.Replay call.
func (b *bench) fleetPhase(e *fleetEnv, budget time.Duration, minCalls int, primary bool) error {
	st := &b.fleet
	for p := pace(budget, minCalls); p.next(); {
		f, mets := e.first, e.mets
		e.first = nil
		if f == nil {
			var err error
			if f, mets, err = e.build(); err != nil {
				return err
			}
		}
		// Traced runs alternate traced and untraced calls.
		tr := b.tr
		if len(st.wall)%2 == 1 {
			tr = nil
		}
		op := b.tr.op()
		start := time.Now()
		var rep *load.Report
		err := tr.do("fleet.Replay", 0, op, func() (err error) {
			rep, err = fleet.Replay(f, e.sc, e.reqs)
			return err
		})
		wall := time.Since(start).Seconds()
		b.attempted++
		if err != nil {
			b.failed++
			f.Shutdown(context.Background())
			return err
		}
		st.wall = append(st.wall, wall)
		st.post = append(st.post, wall-rep.WallSeconds)
		if primary && b.tr != nil {
			b.overhead[tr != nil] = append(b.overhead[tr != nil], wall)
		}
		b.checkReplay("fleet", st, rep)
		if st.hops == 0 {
			st.hops = mets.Counter("fleet.hops")
			st.cross = crossMachineRoutes(f.Certificate())
			if st.cross == 0 {
				b.failf("fleet replay: no route crossed machines")
			}
		}
		if tr != nil {
			sec, err := timeCall(tr, "verify.Fleet", op, func() error {
				return verify.AsError(verify.Fleet(f.Certificate()))
			})
			if err != nil {
				b.failf("fleet certificate: %v", err)
			}
			st.verify = append(st.verify, sec)
		}
		if err := f.Shutdown(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

// crossMachineRoutes counts routes whose hops ran on more than one
// machine.
func crossMachineRoutes(c verify.FleetCertificate) int {
	machines := map[int64]string{}
	crossed := map[int64]bool{}
	for _, h := range c.Hops {
		if m, ok := machines[h.Route]; ok && m != h.Machine {
			crossed[h.Route] = true
		}
		machines[h.Route] = h.Machine
	}
	return len(crossed)
}

// timeCall runs f inside a span and returns its wall seconds.
func timeCall(tr *tracer, name string, op int64, f func() error) (float64, error) {
	start := time.Now()
	err := tr.do(name, 0, op, f)
	return time.Since(start).Seconds(), err
}
