package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pimflow/internal/codegen"
	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/profcache"
	"pimflow/internal/runtime"
	"pimflow/internal/search"
	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// compileProbeRounds is the compile phase's size when it is not the
// named workload: 24 rounds, so the highest percentile with ten rounds
// beyond it sits just above the median (compile_tail_s reaches into the
// tail on compile-cold, whose budget buys several times as many rounds).
const compileProbeRounds = 24

// attributedRounds bounds how many traced rounds a traced run repeats
// call by call.
const attributedRounds = 8

// compileStats accumulates the compile phase.
type compileStats struct {
	rng        *rand.Rand // draws each round's load order
	attributed int        // traced rounds repeated call by call
	rounds     []float64  // wall seconds per round
	sims       []float64  // simulations run per round
	pruned     []float64  // probes pruned per round
	hits       []float64  // profile-store hit ratio per round
	soloSum    int64      // summed solo cycles of the five models
	solo       map[string]int64
	total      map[string]int64 // plan objective per model
	// Traced rounds only: Registry.Load time, and the part of it the
	// layer spans of the same round account for.
	loadSec, layerSec []float64
}

// compileLayers are the public calls Registry.Load makes, in order; the
// traced run repeats them from outside to attribute the load time.
var compileLayers = []string{"models.Build", "search.Run", "search.Apply", "verify.Compiled", "graph.InferShapes", "runtime.Execute"}

// compilePhase runs cold compile rounds: each loads the five paper CNNs
// (PIMFlow policy, 16+16 machine) through serve.Registry.Load on a
// fresh server with a fresh profile store. The seed draws each round's
// load order.
func (b *bench) compilePhase(budget time.Duration, minRounds int, primary bool) error {
	names := models.EvaluatedCNNs()
	st := &b.compile
	if st.rng == nil {
		st.rng = rand.New(rand.NewSource(b.seed))
	}
	type traced struct {
		op    int64
		order []string
	}
	var attribute []traced
	for p := pace(budget, minRounds); p.next(); {
		order := append([]string(nil), names...)
		st.rng.Shuffle(len(order), func(a, c int) { order[a], order[c] = order[c], order[a] })
		// Traced runs alternate traced and untraced rounds so the
		// tracing overhead is measured on the same operation.
		var tr *tracer
		if b.tr != nil && len(st.rounds)%2 == 0 {
			tr = b.tr
		}
		op := b.tr.op()
		sec, loaded, err := compileRound(tr, op, order)
		b.attempted++
		if err != nil {
			b.failed++
			return err
		}
		if primary && b.tr != nil {
			b.overhead[tr != nil] = append(b.overhead[tr != nil], sec)
		}
		st.rounds = append(st.rounds, sec)
		b.checkRound(loaded)
		if tr != nil && st.attributed+len(attribute) < attributedRounds {
			attribute = append(attribute, traced{op, order})
		}
	}
	// Attribution runs after the timed rounds, so its garbage never
	// lands on a timed round.
	for _, t := range attribute {
		if err := b.attributeRound(t.op, t.order); err != nil {
			return err
		}
		st.attributed++
	}
	return nil
}

// compileRound times one round and returns the loaded models.
func compileRound(tr *tracer, op int64, order []string) (float64, []*serve.LoadedModel, error) {
	start := time.Now()
	root, end := tr.begin("compile.round", 0, op)
	srv, err := serve.NewServer(serve.Config{})
	if err != nil {
		end()
		return 0, nil, err
	}
	loaded := make([]*serve.LoadedModel, 0, len(order))
	for _, name := range order {
		var lm *serve.LoadedModel
		err = tr.do("serve.Registry.Load", root, op, func() error {
			var err error
			lm, err = srv.Registry().Load(serve.ModelSpec{Name: name, Model: name, Policy: "PIMFlow"})
			return err
		})
		if err != nil {
			break
		}
		loaded = append(loaded, lm)
	}
	end()
	sec := time.Since(start).Seconds()
	if serr := srv.Shutdown(context.Background()); err == nil {
		err = serr
	}
	return sec, loaded, err
}

// checkRound checks one round's plans and records its counters: the
// virtual results (solo cycles, plan objective) must repeat exactly
// across rounds, and each plan must pass the OP-* rules once per run.
func (b *bench) checkRound(loaded []*serve.LoadedModel) {
	st := &b.compile
	first := st.solo == nil
	if first {
		st.solo, st.total = map[string]int64{}, map[string]int64{}
	}
	var cache profcache.Stats
	for _, lm := range loaded {
		name := lm.Spec.Name
		solo := lm.Solo.DurationCycles()
		if first {
			st.solo[name], st.total[name] = solo, lm.Plan.TotalProfiled
			st.soloSum += solo
			if diags := verify.PlanSearch(lm.Plan.Certificate()); len(diags) > 0 {
				b.failf("plan of %s fails the OP-* rules: %v", name, verify.AsError(diags))
			}
		} else if st.solo[name] != solo || st.total[name] != lm.Plan.TotalProfiled {
			b.failf("%s: solo %d cycles / plan %d differ from the first round's %d / %d",
				name, solo, lm.Plan.TotalProfiled, st.solo[name], st.total[name])
		}
		c := lm.Plan.Cache
		cache.Hits += c.Hits
		cache.Misses += c.Misses
		cache.Shared += c.Shared
		cache.Pruned += c.Pruned
	}
	st.sims = append(st.sims, float64(cache.Misses))
	st.pruned = append(st.pruned, float64(cache.Pruned))
	if n := cache.Hits + cache.Misses + cache.Shared; n > 0 {
		st.hits = append(st.hits, float64(cache.Hits+cache.Shared)/float64(n))
	}
}

// attributeRound repeats the round's loads call by call — the public
// functions Registry.Load makes, in its order, over a fresh shared
// profile store — with a span around each, then runs the plan check and
// a codegen.TimeWorkload sweep over every PIM-candidate layer. The gap
// between the round's Registry.Load time and the layer spans is
// reported.
func (b *bench) attributeRound(op int64, order []string) error {
	tr := b.tr
	root, end := tr.begin("compile.attribution", 0, op)
	defer end()
	store := profcache.New()
	var layers time.Duration
	for _, name := range order {
		var (
			g, compiled *graph.Graph
			plan        *search.Plan
		)
		opts := search.DefaultOptions(search.PolicyPIMFlow)
		opts.Profiles = store
		rt := opts.RuntimeConfig()
		steps := []func() error{
			func() (err error) { g, err = models.Build(name, models.Options{Light: true}); return err },
			func() (err error) { plan, err = search.Run(g, opts); return err },
			func() (err error) { compiled, err = search.Apply(g, plan); return err },
			func() error { return verify.AsError(verify.Compiled(compiled, rt.PIM, rt.Codegen)) },
			func() error { return compiled.InferShapes() },
			func() error { _, err := runtime.Execute(compiled, rt); return err },
		}
		for i, step := range steps {
			t0 := time.Now()
			if err := tr.do(compileLayers[i], root, op, step); err != nil {
				return fmt.Errorf("%s %s: %w", compileLayers[i], name, err)
			}
			layers += time.Since(t0)
		}
		if err := tr.do("verify.PlanSearch", root, op, func() error {
			return verify.AsError(verify.PlanSearch(plan.Certificate()))
		}); err != nil {
			return fmt.Errorf("plan check %s: %w", name, err)
		}
		if err := tr.do("codegen.TimeWorkload", root, op, func() error {
			return timePIMLayers(g, plan, rt)
		}); err != nil {
			return fmt.Errorf("PIM layer sweep %s: %w", name, err)
		}
	}
	b.compile.loadSec = append(b.compile.loadSec, loadSeconds(tr, op))
	b.compile.layerSec = append(b.compile.layerSec, layers.Seconds())
	return nil
}

// timePIMLayers simulates every PIM-candidate layer of the model on the
// plan's PIM configuration.
func timePIMLayers(g *graph.Graph, plan *search.Plan, rt runtime.Config) error {
	for _, d := range plan.Decisions {
		if !d.PIMCandidate {
			continue
		}
		n := g.Node(d.Node)
		if n == nil {
			return fmt.Errorf("node %q missing", d.Node)
		}
		w, err := codegen.NodeWorkload(g, n)
		if err != nil {
			return err
		}
		if _, err := codegen.TimeWorkload(w, rt.PIM, rt.Codegen); err != nil {
			return err
		}
	}
	return nil
}

// loadSeconds sums the Registry.Load spans of one operation.
func loadSeconds(tr *tracer, op int64) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var ns int64
	for _, s := range tr.spans {
		if s.Op == op && s.Name == "serve.Registry.Load" {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}
