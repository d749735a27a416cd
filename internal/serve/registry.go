package serve

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/num"
	"pimflow/internal/obs"
	"pimflow/internal/profcache"
	"pimflow/internal/runtime"
	"pimflow/internal/search"
	"pimflow/internal/verify"
)

// ModelSpec describes one model to load: a zoo model name, the offloading
// policy, and the slice of the machine to compile against. Zero channel
// fields take the policy defaults (the whole 32/16 machine).
type ModelSpec struct {
	// Name is the serving name; defaults to Model when empty.
	Name string `json:"name"`
	// Model is the model-zoo name ("mobilenet-v2", "toy", ...).
	Model string `json:"model"`
	// Policy is the offloading mechanism by paper name ("PIMFlow",
	// "Baseline", ...); defaults to PIMFlow.
	Policy string `json:"policy,omitempty"`
	// TotalChannels and PIMChannels select the resource slice the model
	// is compiled against; smaller slices lease fewer channel groups and
	// can overlap with other models on the machine.
	TotalChannels int `json:"totalChannels,omitempty"`
	PIMChannels   int `json:"pimChannels,omitempty"`
	// MaxBatch overrides the server's default coalescing limit for this
	// model (0: inherit).
	MaxBatch int `json:"maxBatch,omitempty"`
	// BatchWindowMillis overrides the server's wall-clock batching window
	// (0: inherit); BatchWindowCycles overrides the virtual-time window
	// applied to pinned-arrival traffic (0: inherit).
	BatchWindowMillis int64 `json:"batchWindowMillis,omitempty"`
	BatchWindowCycles int64 `json:"batchWindowCycles,omitempty"`
	// SLO names the model's latency class in the server's configured
	// ladder ("" is best-effort).
	SLO string `json:"slo,omitempty"`
}

// LoadedModel is one compiled, verified, ready-to-serve model: the
// transformed graph, the search plan, the derived runtime configuration,
// and the warm solo execution report that placement and batching use.
type LoadedModel struct {
	Spec   ModelSpec
	Policy search.Policy
	Opts   search.Options
	Graph  *graph.Graph
	Plan   *search.Plan
	// Solo is the model's warm single-request execution report (virtual
	// offset 0); its duration is the solo latency the scheduler places.
	Solo *runtime.Report
	// Demand is the channel-group footprint of one execution.
	Demand Demand
	// InitInterval is the batching initiation interval in cycles: the
	// busy time of the model's most contended device. A batch of B
	// requests streams through its lease in Solo duration plus
	// (B-1)*InitInterval — the steady-state throughput bound of a
	// pipelined schedule, which is what coalescing buys over B
	// back-to-back leases.
	InitInterval int64
	// CompileSeconds is the wall-clock cost of the load's compile step.
	CompileSeconds float64
	// Batch is the model's resolved continuous-batching policy (spec
	// overrides folded over the server defaults).
	Batch BatchPolicy
	// SLO is the model's resolved latency class; SLOTarget is its
	// completion target in virtual cycles (0: best-effort).
	SLO       SLOClass
	SLOTarget int64

	rt runtime.Config
	// keys are the lifecycle metric keys for (Spec.Name, SLO.Name). Like
	// rt they are set by the compile step, the only maker of a
	// LoadedModel, and read by every request the model serves.
	keys *lifecycleKeys
}

// ModelInfo is the List entry for one loaded model.
type ModelInfo struct {
	Name           string  `json:"name"`
	Model          string  `json:"model"`
	Policy         string  `json:"policy"`
	Demand         Demand  `json:"demand"`
	SoloCycles     int64   `json:"soloCycles"`
	SoloMillis     float64 `json:"soloMillis"`
	InitInterval   int64   `json:"initIntervalCycles"`
	CompileSeconds float64 `json:"compileSeconds"`
	MaxBatch       int     `json:"maxBatch"`
	SLO            string  `json:"slo,omitempty"`
	SLOTarget      int64   `json:"sloTargetCycles,omitempty"`
}

// ServingDefaults are the server-level batching and SLO defaults a model
// spec's per-model overrides fold over at load time.
type ServingDefaults struct {
	MaxBatch          int
	BatchWindow       time.Duration
	BatchWindowCycles int64
	SLOClasses        []SLOClass
}

func (d ServingDefaults) withDefaults() ServingDefaults {
	if d.MaxBatch <= 0 {
		d.MaxBatch = 1
	}
	if d.SLOClasses == nil {
		d.SLOClasses = DefaultSLOClasses()
	}
	return d
}

// Registry compiles and caches serving models. Loads are verify-gated
// (a model whose transformed graph or PIM command streams violate the
// static invariants never becomes servable) and deduplicated with
// singleflight semantics: concurrent Loads of one name compile once. All
// compilations share one profile store, so a model reload or a sibling
// model with common layer shapes recalls profiles instead of
// re-simulating.
type Registry struct {
	machine  Machine
	profiles *profcache.Store
	metrics  *obs.Metrics
	trace    *obs.Trace
	defaults ServingDefaults

	mu       sync.Mutex
	models   map[string]*LoadedModel // guarded by mu
	inflight map[string]*loadFlight  // guarded by mu
}

type loadFlight struct {
	done chan struct{}
	lm   *LoadedModel
	err  error
}

// NewRegistry returns an empty registry over the machine. A nil profile
// store gets a private one; metrics and trace may be nil. defaults
// supplies the server-level batching and SLO policy that per-model spec
// overrides fold over.
func NewRegistry(m Machine, profiles *profcache.Store, metrics *obs.Metrics, trace *obs.Trace, defaults ServingDefaults) *Registry {
	if profiles == nil {
		profiles = profcache.New()
	}
	return &Registry{
		machine:  m,
		profiles: profiles,
		metrics:  metrics,
		trace:    trace,
		defaults: defaults.withDefaults(),
		models:   map[string]*LoadedModel{},
		inflight: map[string]*loadFlight{},
	}
}

// Profiles returns the registry's shared profile store.
func (r *Registry) Profiles() *profcache.Store { return r.profiles }

// Load compiles, verifies, and warms the model described by spec and
// makes it servable under spec.Name. Loading a name twice fails with
// ErrAlreadyLoaded; concurrent loads of one name share a single compile.
func (r *Registry) Load(spec ModelSpec) (*LoadedModel, error) {
	if spec.Name == "" {
		spec.Name = spec.Model
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("serve: empty model spec")
	}

	r.mu.Lock()
	if _, ok := r.models[spec.Name]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrAlreadyLoaded, spec.Name)
	}
	if f, ok := r.inflight[spec.Name]; ok {
		r.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		return f.lm, nil
	}
	f := &loadFlight{done: make(chan struct{})}
	r.inflight[spec.Name] = f
	r.mu.Unlock()

	f.lm, f.err = r.compile(spec)

	r.mu.Lock()
	delete(r.inflight, spec.Name)
	if f.err == nil {
		r.models[spec.Name] = f.lm
		r.metrics.Set("serve.models_loaded", float64(len(r.models)))
	}
	r.mu.Unlock()
	close(f.done)
	return f.lm, f.err
}

// compile runs the load pipeline: build, search, verify, warm.
func (r *Registry) compile(spec ModelSpec) (*LoadedModel, error) {
	end := r.trace.Span("serve-load", spec.Name, "serve.load",
		map[string]any{"model": spec.Model, "policy": spec.Policy})
	started := time.Now()
	lm, err := r.compileInner(spec)
	if err != nil {
		r.metrics.Inc("serve.model_load_errors")
		end(map[string]any{"error": err.Error()})
		return nil, err
	}
	lm.CompileSeconds = time.Since(started).Seconds()
	r.metrics.Inc("serve.model_loads")
	r.metrics.Observe("serve.model_load_seconds", lm.CompileSeconds)
	end(map[string]any{"soloCycles": lm.Solo.DurationCycles(), "demandGPU": lm.Demand.GPU, "demandPIM": lm.Demand.PIM})
	if obs.Enabled(slog.LevelInfo) {
		obs.L().Info("serve: model loaded",
			"name", lm.Spec.Name, "model", lm.Spec.Model, "policy", lm.Policy.String(),
			"soloCycles", lm.Solo.DurationCycles(), "gpuChannels", lm.Demand.GPU,
			"pimChannels", lm.Demand.PIM, "compileSeconds", lm.CompileSeconds)
	}
	return lm, nil
}

func (r *Registry) compileInner(spec ModelSpec) (*LoadedModel, error) {
	policyName := spec.Policy
	if policyName == "" {
		policyName = search.PolicyPIMFlow.String()
	}
	policy, err := ParsePolicy(policyName)
	if err != nil {
		return nil, err
	}
	// Resolve the serving policy before the expensive compile so a typo'd
	// SLO class fails the load immediately.
	slo, err := findSLO(r.defaults.SLOClasses, spec.SLO)
	if err != nil {
		return nil, fmt.Errorf("serve: load %q: %w", spec.Name, err)
	}
	batch := BatchPolicy{
		MaxBatch:     r.defaults.MaxBatch,
		Window:       r.defaults.BatchWindow,
		WindowCycles: r.defaults.BatchWindowCycles,
	}
	if spec.MaxBatch > 0 {
		batch.MaxBatch = spec.MaxBatch
	}
	if spec.BatchWindowMillis > 0 {
		batch.Window = time.Duration(spec.BatchWindowMillis) * time.Millisecond
	}
	if spec.BatchWindowCycles > 0 {
		batch.WindowCycles = spec.BatchWindowCycles
	}
	g, err := models.Build(spec.Model, models.Options{Light: true})
	if err != nil {
		return nil, fmt.Errorf("serve: load %q: %w", spec.Name, err)
	}
	opts := search.DefaultOptions(policy)
	if spec.TotalChannels > 0 || spec.PIMChannels > 0 {
		total, pimCh := spec.TotalChannels, spec.PIMChannels
		if total == 0 {
			total = opts.TotalChannels
		}
		if pimCh == 0 && policy != search.PolicyBaseline {
			pimCh = opts.PIMChannels
		}
		opts = opts.WithResources(total, pimCh)
	}
	opts.Profiles = r.profiles
	compiled, plan, err := search.Compile(g, opts)
	if err != nil {
		return nil, fmt.Errorf("serve: compile %q: %w", spec.Name, err)
	}

	// Verify gate: a model that fails the static graph invariants or the
	// PIM command-stream protocol never becomes servable.
	rt := opts.RuntimeConfig()
	if diags := verify.Compiled(compiled, rt.PIM, rt.Codegen); len(diags) > 0 {
		verify.Record(r.metrics, diags)
		return nil, fmt.Errorf("serve: model %q failed verification: %w", spec.Name, verify.AsError(diags))
	}

	// Shapes were inferred during Apply; executions of the shared graph
	// from many goroutines must find them present (ExecuteAt's reentrancy
	// contract), so fail loudly here rather than racing later.
	if err := compiled.InferShapes(); err != nil {
		return nil, fmt.Errorf("serve: shapes of %q: %w", spec.Name, err)
	}

	// The lease footprint must fit the machine at all, or no placement
	// will ever succeed.
	demand := Demand{GPU: opts.GPUChannels()}
	for _, n := range compiled.Nodes {
		if n.Exec.Device == graph.DevicePIM {
			demand.PIM = opts.PIMChannels
			break
		}
	}
	if demand.GPU > r.machine.GPUChannels || demand.PIM > r.machine.PIMChannels {
		return nil, fmt.Errorf("serve: model %q demands %d GPU + %d PIM channels, machine has %d + %d",
			spec.Name, demand.GPU, demand.PIM, r.machine.GPUChannels, r.machine.PIMChannels)
	}

	// Warm solo execution: the placement duration, the batching
	// initiation interval, and the first profile-store population all
	// come from this one run.
	solo, err := runtime.Execute(compiled, rt)
	if err != nil {
		return nil, fmt.Errorf("serve: warmup of %q: %w", spec.Name, err)
	}
	ii := num.Max64(num.Max64(solo.GPUBusy, solo.PIMBusy), 1)
	ii = num.Min64(ii, num.Max64(solo.DurationCycles(), 1))

	return &LoadedModel{
		Spec: spec, Policy: policy, Opts: opts,
		Graph: compiled, Plan: plan, Solo: solo,
		Demand: demand, InitInterval: ii,
		Batch: batch, SLO: slo, SLOTarget: slo.Target(solo.DurationCycles()),
		rt: rt, keys: newLifecycleKeys(spec.Name, slo.Name),
	}, nil
}

// Install makes an already-compiled model servable under its spec name
// without recompiling. The fleet placement layer uses it to fan a
// compile-once LoadedModel out to replica machines: the graph is
// read-only after shape inference and the runtime configuration is
// copied per execution, so sharing one LoadedModel across registries is
// safe. The model's demand must still fit this registry's machine, and
// installing over a live name fails with ErrAlreadyLoaded.
func (r *Registry) Install(lm *LoadedModel) error {
	if lm == nil || lm.Spec.Name == "" {
		return fmt.Errorf("serve: install of empty model")
	}
	if lm.Demand.GPU > r.machine.GPUChannels || lm.Demand.PIM > r.machine.PIMChannels {
		return fmt.Errorf("serve: model %q demands %d GPU + %d PIM channels, machine has %d + %d",
			lm.Spec.Name, lm.Demand.GPU, lm.Demand.PIM, r.machine.GPUChannels, r.machine.PIMChannels)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[lm.Spec.Name]; ok {
		return fmt.Errorf("%w: %q", ErrAlreadyLoaded, lm.Spec.Name)
	}
	r.models[lm.Spec.Name] = lm
	r.metrics.Set("serve.models_loaded", float64(len(r.models)))
	return nil
}

// Get returns a loaded model by serving name.
func (r *Registry) Get(name string) (*LoadedModel, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lm, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotLoaded, name)
	}
	return lm, nil
}

// Unload removes a model from serving. In-flight requests holding the
// model finish normally.
func (r *Registry) Unload(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotLoaded, name)
	}
	delete(r.models, name)
	r.metrics.Set("serve.models_loaded", float64(len(r.models)))
	r.metrics.Inc("serve.model_unloads")
	return nil
}

// List returns the loaded models sorted by serving name.
func (r *Registry) List() []ModelInfo {
	r.mu.Lock()
	infos := make([]ModelInfo, 0, len(r.models))
	for name, lm := range r.models {
		infos = append(infos, ModelInfo{
			Name:           name,
			Model:          lm.Spec.Model,
			Policy:         lm.Policy.String(),
			Demand:         lm.Demand,
			SoloCycles:     lm.Solo.DurationCycles(),
			SoloMillis:     lm.Solo.Seconds * 1e3,
			InitInterval:   lm.InitInterval,
			CompileSeconds: lm.CompileSeconds,
			MaxBatch:       lm.Batch.MaxBatch,
			SLO:            lm.SLO.Name,
			SLOTarget:      lm.SLOTarget,
		})
	}
	r.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Len returns the number of loaded models.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.models)
}
