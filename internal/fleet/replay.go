package fleet

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"time"

	"pimflow/internal/load"
	"pimflow/internal/num"
	"pimflow/internal/obs"
	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// Scenario is one reproducible fleet workload: the embedded
// load.Scenario drives the trace (its Models are the traffic draw — an
// entry may name a registered Graph instead of a model), Backends are
// models deployed for graph hops but absent from the draw, Replicas
// overrides per-model replica counts, and Machines sizes the fleet.
type Scenario struct {
	load.Scenario
	// Machines is the fleet size (default 1 — the configuration that is
	// operation-for-operation identical to load.Replay on one server).
	Machines int `json:"machines,omitempty"`
	// Replicas maps model name to desired replica count (default 1).
	Replicas map[string]int `json:"replicas,omitempty"`
	// Backends are deployed models that receive graph hops only.
	Backends []load.ModelLoad `json:"backends,omitempty"`
	// Graphs are registered before the replay; a traffic entry naming
	// one routes every trace request for it through the graph.
	Graphs []Graph `json:"graphs,omitempty"`
	// Certify records per-machine SR-* certificates plus the FL-* fleet
	// certificate; the replay fails unless both verify clean.
	Certify bool `json:"certify,omitempty"`
	// TimeShare forwards Config.TimeShare (overcommitted placement).
	TimeShare bool `json:"timeShare,omitempty"`
}

func (s Scenario) withDefaults() Scenario {
	if s.Machines <= 0 {
		s.Machines = 1
	}
	s.Scenario = s.Scenario.WithDefaults()
	return s
}

// NewScenarioFleet builds a fleet for the scenario: machines from the
// embedded serve knobs, every non-graph traffic model plus every
// backend deployed at its replica count, every graph registered.
func NewScenarioFleet(sc Scenario, metrics *obs.Metrics, trace *obs.Trace) (*Fleet, error) {
	sc = sc.withDefaults()
	adm, err := serve.ParseAdmissionPolicy(sc.Admission)
	if err != nil {
		return nil, err
	}
	f, err := New(Config{
		Machines:   sc.Machines,
		QueueDepth: sc.QueueDepth,
		Admission:  adm,
		Metrics:    metrics,
		Trace:      trace,
		Certify:    sc.Certify,
		Seed:       sc.Seed,
		TimeShare:  sc.TimeShare,
	})
	if err != nil {
		return nil, err
	}
	graphNames := map[string]bool{}
	for _, g := range sc.Graphs {
		graphNames[g.Name] = true
	}
	deploy := func(ms []load.ModelLoad) error {
		for _, m := range ms {
			if graphNames[m.Name] {
				continue // a traffic entry routing to a graph, not a model
			}
			if err := f.Deploy(m.Spec(), sc.Replicas[m.Name]); err != nil {
				return err
			}
		}
		return nil
	}
	err = deploy(sc.Models)
	if err == nil {
		err = deploy(sc.Backends)
	}
	if err != nil {
		_ = f.Shutdown(context.Background())
		return nil, err
	}
	for _, g := range sc.Graphs {
		if err := f.RegisterGraph(g); err != nil {
			_ = f.Shutdown(context.Background())
			return nil, err
		}
	}
	return f, nil
}

// hop is a machine's per-request context: nil exec for a plain trace
// request; otherwise the route the hop belongs to, the joining ensemble
// frame when it is one of its branches, and the certificate index of
// the gating hop (-1 when ungated).
type hop struct {
	exec  *routeExec
	ens   *execFrame
	node  string
	model string
	after int
}

// routeExec is one in-flight graph traversal in the replay.
type routeExec struct {
	route   int64
	graph   Graph
	cond    string
	arrival int64
	frames  []*execFrame
	// lastCert is the certificate index of the hop gating the next one
	// (-1 at the root: the first hop starts at the trace arrival).
	lastCert  int
	hopCount  int
	lastBatch int
	lastClass string
	sloMiss   bool
	stages    serve.StageCycles
	failed    bool
}

// execFrame is one graph-node activation on a route's stack.
type execFrame struct {
	node GraphNode
	idx  int // sequence: next step
	// Ensemble join state: branches outstanding, the join cycle (max
	// branch end), and the certificate index of the branch that set it.
	remaining int
	maxEnd    int64
	maxCert   int
}

// hopEvent resumes a route at a hop-completion (or ensemble-join)
// cycle. seq breaks cycle ties in creation order, so the event schedule
// is a pure function of the trace.
type hopEvent struct {
	cycle int64
	seq   int64
	exec  *routeExec
}

type eventHeap []hopEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(hopEvent)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// replayer is the single-goroutine deterministic fleet replay.
type replayer struct {
	f        *Fleet
	rep      *load.Report
	stats    *load.Collector
	machines []*load.Machine[hop]
	events   eventHeap
	eventSeq int64
}

// Replay drives the trace through the fleet deterministically on one
// goroutine. Each machine's admission and continuous batching is a
// load.Machine, the engine load.Replay runs on one server, so a
// 1-machine fleet produces an identical report (modulo wall-clock
// fields). The router adds join-the-shortest-queue over a model's
// replicas, and graph traversals interleave through a (cycle,
// seq)-ordered event heap: a Sequence hop's arrival is pinned to its
// predecessor's completion cycle and an Ensemble joins at its slowest
// branch, so cross-machine latency lives on the one shared virtual
// timeline. Identical scenario, identical report.
//
//pimflow:deterministic
func Replay(f *Fleet, sc Scenario, reqs []load.Request) (*load.Report, error) {
	sc = sc.withDefaults()
	if f.Size() != sc.Machines {
		return nil, fmt.Errorf("fleet: scenario wants %d machines, fleet has %d", sc.Machines, f.Size())
	}
	x := &replayer{
		f:     f,
		rep:   &load.Report{Scenario: sc.Name, Requests: len(reqs), Classes: map[string]load.ClassStats{}},
		stats: load.NewCollector(sc.Scenario, len(reqs)),
	}
	for i := 0; i < f.Size(); i++ {
		m, err := load.NewMachine(f.Machine(i), sc.Scenario, func(p *load.Pending[hop], resp *serve.InferResponse, err error) {
			x.done(i, p, resp, err)
		})
		if err != nil {
			return nil, err
		}
		x.machines = append(x.machines, m)
	}
	started := time.Now()

	for _, r := range reqs {
		if err := x.runEvents(r.Cycle); err != nil {
			return nil, err
		}
		if err := x.admitTrace(r); err != nil {
			return nil, err
		}
	}
	// Trailing state: pending events first (each may open fresh
	// batches), then the globally earliest-headed open batch, until
	// nothing is open anywhere.
	if err := load.Drain(x.machines, func() error { return x.runEvents(math.MaxInt64) }); err != nil {
		return nil, err
	}

	x.rep.WallSeconds = time.Since(started).Seconds()
	x.stats.Finish(x.rep)
	if f.Certifying() {
		cert := f.Certificate()
		if diags := verify.Fleet(cert); len(diags) > 0 {
			return nil, fmt.Errorf("fleet: certificate (%d machines, %d hops): %w",
				len(cert.Machines), len(cert.Hops), verify.AsError(diags))
		}
		x.rep.Certified = true
		for _, name := range num.SortedKeys(cert.Schedules) {
			x.rep.CertifiedLeases += len(cert.Schedules[name].Leases)
		}
	}
	return x.rep, nil
}

// Run is the one-call fleet harness: build the fleet, generate the
// trace, replay it, shut the fleet down.
func Run(sc Scenario) (*load.Report, error) {
	sc = sc.withDefaults()
	f, err := NewScenarioFleet(sc, nil, nil)
	if err != nil {
		return nil, err
	}
	defer f.Shutdown(context.Background())
	reqs, err := load.Generate(sc.Scenario)
	if err != nil {
		return nil, err
	}
	return Replay(f, sc, reqs)
}

// admitTrace routes one trace entry: a graph name starts a traversal,
// a model name is a single pinned hop.
func (x *replayer) admitTrace(r load.Request) error {
	x.f.mu.Lock()
	g, isGraph := x.f.graphs[r.Model]
	x.f.mu.Unlock()
	route := x.f.nextRoute()
	if !isGraph {
		return x.issueHop(route, r.Cycle, hop{model: r.Model, after: -1})
	}
	root, err := graphNode(g, g.Root)
	if err != nil {
		return err
	}
	exec := &routeExec{route: route, graph: g, arrival: r.Cycle, lastCert: -1,
		frames: []*execFrame{{node: root}}}
	return x.advance(exec, r.Cycle)
}

// advance runs a route's interpreter at virtual cycle t until it issues
// hop(s) or completes. Sequence frames issue their next step; entering
// an Ensemble issues every branch at once (branches run concurrently in
// virtual time and join at the slowest end); Splitter and Switch
// resolve to their one chosen step and vanish from the stack.
func (x *replayer) advance(exec *routeExec, t int64) error {
	for {
		if exec.failed {
			return nil
		}
		if len(exec.frames) == 0 {
			x.finishExec(exec, t)
			return nil
		}
		fr := exec.frames[len(exec.frames)-1]
		switch fr.node.Type {
		case "sequence":
			if fr.idx >= len(fr.node.Steps) {
				exec.frames = exec.frames[:len(exec.frames)-1]
				continue
			}
			s := fr.node.Steps[fr.idx]
			fr.idx++
			if s.Node != "" {
				n, err := graphNode(exec.graph, s.Node)
				if err != nil {
					return err
				}
				exec.frames = append(exec.frames, &execFrame{node: n})
				continue
			}
			return x.issueHop(exec.route, t, hop{exec: exec, node: fr.node.Name, model: s.Model, after: exec.lastCert})
		case "ensemble":
			// FL-NODE restricts ensemble steps to models, so every branch
			// is one hop and the join state fits in the frame.
			fr.remaining = len(fr.node.Steps)
			fr.maxEnd = -1
			fr.maxCert = -1
			gate := exec.lastCert
			for _, s := range fr.node.Steps {
				if err := x.issueHop(exec.route, t, hop{exec: exec, ens: fr, node: fr.node.Name, model: s.Model, after: gate}); err != nil {
					return err
				}
			}
			return nil
		case "splitter":
			s := pickSplit(x.f.cfg.Seed, exec.route, fr.node.Steps)
			exec.frames = exec.frames[:len(exec.frames)-1]
			if s.Node != "" {
				n, err := graphNode(exec.graph, s.Node)
				if err != nil {
					return err
				}
				exec.frames = append(exec.frames, &execFrame{node: n})
				continue
			}
			return x.issueHop(exec.route, t, hop{exec: exec, node: fr.node.Name, model: s.Model, after: exec.lastCert})
		case "switch":
			s, err := pickSwitch(exec.cond, fr.node.Steps)
			if err != nil {
				// No matching step: the route fails (counted once).
				x.fail(exec, err)
				return nil
			}
			exec.frames = exec.frames[:len(exec.frames)-1]
			if s.Node != "" {
				n, nerr := graphNode(exec.graph, s.Node)
				if nerr != nil {
					return nerr
				}
				exec.frames = append(exec.frames, &execFrame{node: n})
				continue
			}
			return x.issueHop(exec.route, t, hop{exec: exec, node: fr.node.Name, model: s.Model, after: exec.lastCert})
		default:
			return fmt.Errorf("fleet: graph %q node %q has unknown type %q", exec.graph.Name, fr.node.Name, fr.node.Type)
		}
	}
}

// resolve picks the machine for a hop: ensure the model is placed
// (on-demand, modelmesh-style), touch its LRU stamp, then
// join-the-shortest-queue over the replicas by replay-side virtual
// occupancy (in-flight completions pruned to the hop cycle first), ties
// to the lowest index — at one replica this always lands on the same
// machine load.Replay would be.
func (x *replayer) resolve(route int64, model string, t int64) (int, error) {
	f := x.f
	f.mu.Lock()
	d, ok := f.deployments[model]
	if !ok {
		f.mu.Unlock()
		return 0, fmt.Errorf("fleet: trace names unknown model %q", model)
	}
	if len(d.replicas) == 0 {
		if err := f.ensureLocked(d, true); err != nil {
			f.mu.Unlock()
			return 0, err
		}
		f.cfg.Metrics.Inc("fleet.on_demand_loads")
	}
	d.lastUsed = route
	replicas := append([]int(nil), d.replicas...)
	f.mu.Unlock()

	best, bestLoad := -1, 0
	for _, mi := range replicas {
		m := x.machines[mi]
		m.Prune(t)
		if l := m.Occupancy(); best < 0 || l < bestLoad {
			best, bestLoad = mi, l
		}
	}
	return best, nil
}

// issueHop admits one hop at cycle t on the machine resolve picks.
func (x *replayer) issueHop(route, t int64, h hop) error {
	mi, err := x.resolve(route, h.model, t)
	if err != nil {
		return err
	}
	return x.machines[mi].Admit(h.model, t, h)
}

// done receives machine mi's outcome for one hop: a served hop settles,
// a failed one counts against its request or route.
func (x *replayer) done(mi int, p *load.Pending[hop], resp *serve.InferResponse, err error) {
	if err != nil {
		x.fail(p.Ctx.exec, err)
		return
	}
	x.settle(mi, p, resp)
}

// fail records one failure: plain requests (nil exec) count directly;
// a route counts once, at its first failed hop (in-flight sibling
// branches of a failed route complete as no-ops).
func (x *replayer) fail(exec *routeExec, err error) {
	if exec != nil {
		if exec.failed {
			return
		}
		exec.failed = true
	}
	x.stats.Record(x.rep, nil, err)
}

// settle finishes one hop served on machine mi: a plain request feeds
// the report directly; a routed hop records its certificate entry and
// schedules the route's continuation on the event heap (never
// recursively — the heap's (cycle, seq) order is the one source of
// interleaving).
func (x *replayer) settle(mi int, p *load.Pending[hop], resp *serve.InferResponse) {
	h := p.Ctx
	if h.exec == nil {
		x.stats.Record(x.rep, resp, nil)
		return
	}
	exec := h.exec
	name := x.f.machines[mi].name
	idx := x.f.recordHop(verify.FleetHop{
		Route: exec.route, Index: exec.hopCount, Graph: exec.graph.Name, Node: h.node,
		Model: h.model, Machine: name,
		Arrival: p.Cycle, End: resp.EndCycle, After: h.after,
	})
	exec.hopCount++
	exec.lastBatch = resp.BatchSize
	exec.lastClass = resp.SLOClass
	if resp.SLOMiss {
		exec.sloMiss = true
	}
	exec.stages.BatchWait += resp.BatchWaitCycles
	exec.stages.LeaseWait += resp.LeaseWaitCycles
	exec.stages.Execute += resp.ExecuteCycles
	x.f.cfg.Metrics.Inc("fleet.hops")
	x.f.cfg.Metrics.Inc(obs.LabeledKey("fleet.hops", "machine", name))
	if h.ens != nil {
		fr := h.ens
		fr.remaining--
		if resp.EndCycle > fr.maxEnd {
			fr.maxEnd = resp.EndCycle
			fr.maxCert = idx
		}
		if fr.remaining == 0 && !exec.failed {
			// All branches joined: pop the ensemble frame (it is the top —
			// nothing advances a route while a join is outstanding) and
			// resume the parent at the slowest branch's completion.
			exec.frames = exec.frames[:len(exec.frames)-1]
			exec.lastCert = fr.maxCert
			x.pushEvent(exec, fr.maxEnd)
		}
		return
	}
	if !exec.failed {
		exec.lastCert = idx
		x.pushEvent(exec, resp.EndCycle)
	}
}

func (x *replayer) pushEvent(exec *routeExec, cycle int64) {
	x.eventSeq++
	heap.Push(&x.events, hopEvent{cycle: cycle, seq: x.eventSeq, exec: exec})
}

// finishExec completes a route: its end-to-end latency is the last
// completion minus the trace arrival (Sequence hops pin each arrival to
// the predecessor's end, so the pinning is exact; Ensemble branches
// join at the slowest end). The synthesized response's stage cycles sum
// the hop stages — for a pure Sequence they partition the latency
// exactly; an Ensemble's concurrent branches make the sum an
// upper bound.
func (x *replayer) finishExec(exec *routeExec, t int64) {
	x.stats.Record(x.rep, &serve.InferResponse{
		Model:           exec.graph.Name,
		ArrivalCycle:    exec.arrival,
		EndCycle:        t,
		LatencyCycles:   t - exec.arrival,
		BatchSize:       exec.lastBatch,
		SLOClass:        exec.lastClass,
		SLOMiss:         exec.sloMiss,
		BatchWaitCycles: exec.stages.BatchWait,
		LeaseWaitCycles: exec.stages.LeaseWait,
		ExecuteCycles:   exec.stages.Execute,
	}, nil)
	x.f.cfg.Metrics.Observe("fleet.route_latency_cycles", float64(t-exec.arrival))
}

// runEvents resumes, in (cycle, seq) order, every route whose event
// falls at or before cycle.
func (x *replayer) runEvents(cycle int64) error {
	for x.events.Len() > 0 && x.events[0].cycle <= cycle {
		ev := heap.Pop(&x.events).(hopEvent)
		if err := x.advance(ev.exec, ev.cycle); err != nil {
			return err
		}
	}
	return nil
}
