package load

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"slices"

	"pimflow/internal/serve"
)

// Machine is one server's virtual admission and batching state in a
// deterministic replay. The replay driver itself performs admission and
// continuous batching in virtual time on a single goroutine: occupancy
// is open (unflushed, unshed) requests plus placed requests whose
// completions are still in the simulated future, and each formed batch
// goes to Server.InferBatch, which runs the live path's placement,
// deadline, and SLO machinery synchronously. Replay drives one Machine;
// the fleet replay drives one per fleet machine.
//
// C is the caller's per-request context. It rides by value in each
// Pending, so it costs no allocation beyond the pending entry itself.
type Machine[C any] struct {
	srv        *serve.Server
	queueDepth int
	shed       bool
	execute    bool
	done       func(*Pending[C], *serve.InferResponse, error)
	policies   map[string]modelPolicy
	open       map[string]*openBatch[C] // per-model open batch
	live       int                      // open, unshed requests across open
	inFlight   endHeap                  // completion cycles of placed work

	// Scratch reused by every shed decision.
	models []string
	ps     []*Pending[C]
	cands  []serve.ShedCandidate
}

// Pending is one admitted, not-yet-flushed request in a Machine's
// virtual queue.
type Pending[C any] struct {
	Cycle    int64 // virtual arrival
	Ctx      C
	service  int64 // warm solo estimate, for shed prediction
	deadline int64 // SLO target, 0 best-effort
	shed     bool
}

// openBatch is one model's open batch on a machine.
type openBatch[C any] struct {
	items      []*Pending[C]
	flushCycle int64 // 0: flush immediately (no virtual window)
}

// modelPolicy is a model's shed-prediction and batching policy, read
// once from the machine's registry.
type modelPolicy struct {
	service  int64
	deadline int64
	maxBatch int
	window   int64
}

// endHeap is a min-heap of in-service completion cycles: requests whose
// batches are placed but whose completions are still in the future count
// against the virtual queue depth.
type endHeap []int64

func (h endHeap) Len() int           { return len(h) }
func (h endHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h endHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *endHeap) Push(x any)        { *h = append(*h, x.(int64)) }

func (h *endHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewMachine returns the virtual queue over srv under the scenario's
// QueueDepth, Admission ("reject" or "shed-oldest": open-loop replay
// cannot block), and Execute. done receives every admitted request's
// outcome exactly once: its response when served, otherwise
// serve.ErrQueueFull (rejected), serve.ErrShed (shed on arrival or
// later as the victim of a newer one), or the batch's per-request
// error.
func NewMachine[C any](srv *serve.Server, sc Scenario, done func(p *Pending[C], resp *serve.InferResponse, err error)) (*Machine[C], error) {
	sc = sc.WithDefaults()
	shed := sc.Admission == "shed-oldest" || sc.Admission == "shed"
	if !shed && sc.Admission != "reject" {
		return nil, fmt.Errorf("load: replay admission %q (open-loop replay supports reject and shed-oldest)", sc.Admission)
	}
	return &Machine[C]{
		srv:        srv,
		queueDepth: sc.QueueDepth,
		shed:       shed,
		execute:    sc.Execute,
		done:       done,
		policies:   map[string]modelPolicy{},
		open:       map[string]*openBatch[C]{},
	}, nil
}

// policy returns the model's admission and batching policy.
func (m *Machine[C]) policy(model string) (modelPolicy, error) {
	if p, ok := m.policies[model]; ok {
		return p, nil
	}
	lm, err := m.srv.Registry().Get(model)
	if err != nil {
		return modelPolicy{}, fmt.Errorf("load: trace names unloaded model %q: %w", model, err)
	}
	p := modelPolicy{
		service:  lm.Solo.DurationCycles(),
		deadline: lm.SLOTarget,
		maxBatch: lm.Batch.MaxBatch,
		window:   lm.Batch.WindowCycles,
	}
	m.policies[model] = p
	return p, nil
}

// Prune retires the placed work that completes at or before now, which
// frees its queue slots.
func (m *Machine[C]) Prune(now int64) {
	for len(m.inFlight) > 0 && m.inFlight[0] <= now {
		heap.Pop(&m.inFlight)
	}
}

// Occupancy is the virtual queue depth: placed requests not yet pruned
// plus open, unshed ones.
func (m *Machine[C]) Occupancy() int {
	return len(m.inFlight) + m.live
}

func (b *openBatch[C]) live() int {
	n := 0
	for _, p := range b.items {
		if !p.shed {
			n++
		}
	}
	return n
}

// Admit runs one arrival through the machine at cycle: flush the
// windows the clock has passed, retire completions at or before it,
// then admit the request into its model's open batch, flushing the
// batch when full or windowless. At the queue depth the arrival is
// rejected, or the live queue's shed victim is picked among the open
// requests and the arrival.
//
//pimflow:deterministic
func (m *Machine[C]) Admit(model string, cycle int64, ctx C) error {
	pol, err := m.policy(model)
	if err != nil {
		return err
	}
	if err := m.flushDue(cycle); err != nil {
		return err
	}
	m.Prune(cycle)
	p := &Pending[C]{Cycle: cycle, Ctx: ctx, service: pol.service, deadline: pol.deadline}
	if m.Occupancy() >= m.queueDepth {
		if !m.shed {
			m.done(p, nil, serve.ErrQueueFull)
			return nil
		}
		ps := m.openInOrder()
		cands := m.cands[:0]
		for _, q := range ps {
			cands = append(cands, serve.ShedCandidate{Deadline: q.deadline, Service: q.service})
		}
		cands = append(cands, serve.ShedCandidate{Deadline: p.deadline, Service: p.service})
		m.cands = cands
		v := serve.PickShedVictim(cands)
		if v == len(ps) {
			m.done(p, nil, serve.ErrShed) // the arrival itself was the most hopeless
			return nil
		}
		ps[v].shed = true
		m.live--
		m.done(ps[v], nil, serve.ErrShed)
	}
	b := m.open[model]
	if b == nil {
		b = &openBatch[C]{}
		if pol.maxBatch > 1 && pol.window > 0 {
			b.flushCycle = cycle + pol.window
		}
		m.open[model] = b
	}
	b.items = append(b.items, p)
	m.live++
	if b.live() >= pol.maxBatch || b.flushCycle == 0 {
		return m.flush(model, b)
	}
	return nil
}

// openInOrder lists the open (unflushed, unshed) requests oldest
// first — the candidate order PickShedVictim expects. Collection
// walks models in sorted order and the sort is stable, so requests
// arriving on the same cycle from different models keep one fixed
// order: an unstable sort over map-ordered candidates let equal-cycle
// ties land on a different shed victim run to run. The list lives in
// the machine's scratch and is valid until the next call.
func (m *Machine[C]) openInOrder() []*Pending[C] {
	m.models = m.models[:0]
	//lint:ignore LT-MAP-ORDER the names are sorted before use
	for model := range m.open {
		m.models = append(m.models, model)
	}
	slices.Sort(m.models)
	ps := m.ps[:0]
	for _, model := range m.models {
		for _, p := range m.open[model].items {
			if !p.shed {
				ps = append(ps, p)
			}
		}
	}
	slices.SortStableFunc(ps, func(a, b *Pending[C]) int { return cmp.Compare(a.Cycle, b.Cycle) })
	m.ps = ps
	return ps
}

// flushDue flushes, in deterministic (flushCycle, model) order, every
// open batch whose virtual window the clock has passed. Each round
// takes the strict minimum over (flushCycle, model), which does not
// depend on map iteration order.
func (m *Machine[C]) flushDue(now int64) error {
	for {
		var dueModel string
		var due *openBatch[C]
		//lint:ignore LT-MAP-ORDER strict (flushCycle, model) minimum; order-insensitive
		for model, b := range m.open {
			if b.flushCycle > 0 && now > b.flushCycle &&
				(due == nil || b.flushCycle < due.flushCycle ||
					b.flushCycle == due.flushCycle && model < dueModel) {
				dueModel, due = model, b
			}
		}
		if due == nil {
			return nil
		}
		if err := m.flush(dueModel, due); err != nil {
			return err
		}
	}
}

// flush closes the model's open batch, hands its unshed requests to
// InferBatch, and reports each outcome; served requests join the
// in-flight heap until their completion cycle.
func (m *Machine[C]) flush(model string, b *openBatch[C]) error {
	delete(m.open, model)
	m.live -= b.live()
	var batch []serve.InferRequest
	for _, p := range b.items {
		if !p.shed {
			batch = append(batch, serve.InferRequest{Model: model, ArrivalCycle: p.Cycle})
		}
	}
	if len(batch) == 0 {
		return nil
	}
	outs, err := m.srv.InferBatch(context.Background(), batch, serve.BatchOptions{Execute: m.execute})
	if err != nil {
		return err
	}
	i := 0
	for _, p := range b.items {
		if p.shed {
			continue
		}
		o := outs[i]
		i++
		if o.Err == nil {
			heap.Push(&m.inFlight, o.Resp.EndCycle)
		}
		m.done(p, o.Resp, o.Err)
	}
	return nil
}

// Drain flushes the machines' trailing batches once the trace is
// exhausted: the earliest-headed open batch first, ties to the lower
// machine index and then the model name (the strict minimum over
// (head cycle, machine index, model)). settle, when
// non-nil, runs before each flush; the fleet replay resumes its routes
// there, which may open fresh batches.
//
//pimflow:deterministic
func Drain[C any](machines []*Machine[C], settle func() error) error {
	for {
		if settle != nil {
			if err := settle(); err != nil {
				return err
			}
		}
		var best *Machine[C]
		var bestModel string
		var head *openBatch[C]
		for _, m := range machines {
			//lint:ignore LT-MAP-ORDER strict (head, machine, model) minimum; order-insensitive
			for model, b := range m.open {
				if head == nil || b.items[0].Cycle < head.items[0].Cycle ||
					b.items[0].Cycle == head.items[0].Cycle && m == best && model < bestModel {
					best, bestModel, head = m, model, b
				}
			}
		}
		if best == nil {
			return nil
		}
		if err := best.flush(bestModel, head); err != nil {
			return err
		}
	}
}
