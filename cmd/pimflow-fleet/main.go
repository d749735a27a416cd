// Command pimflow-fleet runs N simulated serving machines behind the
// placement and inference-graph routing tier as an HTTP JSON API:
//
//	pimflow-fleet -addr :8080 -machines 2 -load "front=mobilenet-v2;replicas=2,back=resnet-50"
//
//	GET    /healthz                     fleet liveness + per-machine drain state
//	GET    /metrics                     router-tier metrics (fleet.* keys)
//	GET    /v1/machines                 machine list with active placements
//	GET    /v1/machines/{name}/metrics  one machine's serving metrics
//	GET    /v1/models                   fleet deployments
//	POST   /v1/models/{name}            deploy (ModelSpec + replicas/lazy)
//	DELETE /v1/models/{name}            undeploy everywhere
//	POST   /v1/models/{name}/scale      set the replica count
//	POST   /v1/models/{name}/infer      route one inference (JSQ over replicas)
//	GET    /v1/graphs                   registered inference graphs
//	POST   /v1/graphs/{name}            register a graph
//	POST   /v1/graphs/{name}/infer      route one request through the graph
//
// Each -load entry extends pimflow-serve's grammar with fleet options:
// "name=model" plus semicolon-separated batch=N, window=D, cycles=N,
// slo=class, replicas=N (replicas sit on distinct machines), and lazy
// (register without placing; the first routed request triggers the
// modelmesh-style on-demand load).
//
// -graph registers inference graphs inline. Each entry is
// "name=type:steps" where type is sequence, ensemble, splitter, or
// switch; steps are comma-separated models — splitter steps carry
// weights as "model*weight", switch steps carry conditions as
// "cond=model":
//
//	-graph "chain=sequence:front,back" -graph "ab=splitter:a*3,b*1"
//
// Richer graphs (nested nodes) register over HTTP as JSON.
//
// SIGINT/SIGTERM drains every machine gracefully. With -verify each
// machine records its SR-* schedule certificate and the router records
// the FL-* fleet certificate (placements, graphs, hops); both are
// checked at drain, exiting nonzero on any violation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pimflow/internal/fleet"
	"pimflow/internal/obs"
	"pimflow/internal/serve"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var graphs multiFlag
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		machines   = flag.Int("machines", 2, "simulated machine count")
		load       = flag.String("load", "", "comma-separated models to deploy (pimflow-serve grammar plus replicas=N, lazy)")
		policy     = flag.String("policy", "PIMFlow", "offloading policy for deployed models")
		channels   = flag.Int("channels", 0, "total memory channels each deploy compiles against (0: policy default)")
		pimCh      = flag.Int("pim_channels", 0, "PIM-enabled channels of each deploy's slice (0: policy default)")
		machineGPU = flag.Int("machine_gpu", 16, "GPU channel groups of every machine")
		machinePIM = flag.Int("machine_pim", 16, "PIM channel groups of every machine")
		queueDepth = flag.Int("queue", 64, "admission queue depth per machine")
		admission  = flag.String("admission", "reject", "backpressure policy when a machine's queue is full: reject | block | shed-oldest")
		workers    = flag.Int("workers", 4, "request-processing goroutines per machine")
		maxBatch   = flag.Int("max_batch", 1, "largest same-model coalesced batch (1: no batching)")
		batchWin   = flag.Duration("batch_window", 0, "extra wall-clock wait for same-model requests to coalesce")
		batchCyc   = flag.Int64("batch_cycles", 0, "virtual-time batching window for pinned-arrival requests (cycles)")
		sloClass   = flag.String("slo", "", "default latency class for deploys (gold, silver, bronze; empty: best-effort)")
		seed       = flag.Int64("seed", 1, "Splitter weighted-hash seed")
		timeShare  = flag.Bool("time_share", false, "let placement overcommit channel groups (safety proven by SR-OVERLAP)")
		verifyFl   = flag.Bool("verify", false, "record the fleet (FL-*) and per-machine schedule (SR-*) certificates, check at drain (nonzero exit on violations)")
		traceFile  = flag.String("trace", "", "Chrome trace file written at shutdown (router lanes + per-machine timelines)")
		drainWait  = flag.Duration("drain", 30*time.Second, "graceful-drain budget at shutdown")
		verbose    = flag.Bool("v", false, "info-level structured logs on stderr")
		vverbose   = flag.Bool("vv", false, "debug-level structured logs on stderr")
	)
	flag.Var(&graphs, "graph", "inference graph to register: name=type:steps (repeatable)")
	flag.Parse()
	switch {
	case *vverbose:
		obs.SetVerbosity(2)
	case *verbose:
		obs.SetVerbosity(1)
	}
	if err := run(*addr, *machines, *load, *policy, *channels, *pimCh, *machineGPU, *machinePIM,
		*queueDepth, *admission, *workers, *maxBatch, *batchWin, *batchCyc, *sloClass,
		*seed, *timeShare, graphs, *traceFile, *drainWait, *verifyFl); err != nil {
		fmt.Fprintln(os.Stderr, "pimflow-fleet:", err)
		os.Exit(1)
	}
}

func run(addr string, machines int, load, policy string, channels, pimCh, machineGPU, machinePIM,
	queueDepth int, admission string, workers, maxBatch int,
	batchWin time.Duration, batchCyc int64, sloClass string, seed int64, timeShare bool,
	graphs []string, traceFile string, drainWait time.Duration, verifyFl bool) error {
	adm, err := serve.ParseAdmissionPolicy(admission)
	if err != nil {
		return err
	}
	var trace *obs.Trace
	if traceFile != "" {
		trace = obs.NewTrace()
	}
	f, err := fleet.New(fleet.Config{
		Machines:          machines,
		Machine:           serve.Machine{GPUChannels: machineGPU, PIMChannels: machinePIM},
		QueueDepth:        queueDepth,
		Admission:         adm,
		Workers:           workers,
		MaxBatch:          maxBatch,
		BatchWindow:       batchWin,
		BatchWindowCycles: batchCyc,
		Trace:             trace,
		Certify:           verifyFl,
		Seed:              seed,
		TimeShare:         timeShare,
	})
	if err != nil {
		return err
	}

	loads, err := serve.ParseLoads(load, serve.ModelSpec{
		Policy: policy, TotalChannels: channels, PIMChannels: pimCh, SLO: sloClass,
	}, true)
	if err != nil {
		return err
	}
	for _, l := range loads {
		replicas := max(l.Replicas, 1)
		if l.Lazy {
			if err := f.Register(l.Spec, replicas); err != nil {
				return fmt.Errorf("register %q: %w", l.Spec.Name, err)
			}
			fmt.Printf("registered %s (model %s, %d replica(s), lazy: placed on first request)\n",
				l.Spec.Name, l.Spec.Model, replicas)
			continue
		}
		if err := f.Deploy(l.Spec, replicas); err != nil {
			return fmt.Errorf("deploy %q: %w", l.Spec.Name, err)
		}
	}
	for _, d := range f.Deployments() {
		if !d.Loaded {
			continue
		}
		fmt.Printf("deployed %s (model %s): %d GPU + %d PIM channels on %s\n",
			d.Name, d.Model, d.Demand.GPU, d.Demand.PIM, strings.Join(d.Replicas, ","))
	}
	for _, entry := range graphs {
		g, err := parseGraph(entry)
		if err != nil {
			return err
		}
		if err := f.RegisterGraph(g); err != nil {
			return fmt.Errorf("graph %q: %w", g.Name, err)
		}
		fmt.Printf("registered graph %s (root %s)\n", g.Name, g.Root)
	}

	httpSrv := &http.Server{Addr: addr, Handler: f.Handler()}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("fleet of %d machines serving on %s (each: %d GPU + %d PIM channel groups, queue %d/%s, %d workers)\n",
			f.Size(), addr, machineGPU, machinePIM, queueDepth, adm, workers)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("received %s, draining %d machines (budget %s)\n", s, f.Size(), drainWait)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if verifyFl {
		cert := f.Certificate()
		if diags := f.Verify(); len(diags) > 0 {
			for _, d := range diags {
				fmt.Fprintln(os.Stderr, d)
			}
			return fmt.Errorf("fleet certificate: %d violation(s) (FL-* and per-machine SR-*)", len(diags))
		}
		leases := 0
		for _, sc := range cert.Schedules {
			leases += len(sc.Leases)
		}
		fmt.Printf("fleet certificate: %d machines, %d placements, %d hops, %d leases verified clean (FL-* + SR-*)\n",
			len(cert.Machines), len(cert.Placements), len(cert.Hops), leases)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if traceFile != "" {
		out, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := trace.WriteJSON(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d events written to %s\n", trace.Len(), traceFile)
	}
	fmt.Println("drained cleanly")
	return nil
}

// parseGraph parses one -graph entry, "name=type:steps". Steps are
// comma-separated models; splitter steps carry "model*weight" weights,
// switch steps carry "cond=model" conditions.
func parseGraph(entry string) (fleet.Graph, error) {
	name, rest, ok := strings.Cut(strings.TrimSpace(entry), "=")
	if !ok {
		return fleet.Graph{}, fmt.Errorf("graph entry %q is not name=type:steps", entry)
	}
	typ, stepList, ok := strings.Cut(rest, ":")
	if !ok {
		return fleet.Graph{}, fmt.Errorf("graph entry %q is not name=type:steps", entry)
	}
	node := fleet.GraphNode{Name: "root", Type: typ}
	for _, s := range strings.Split(stepList, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		step := fleet.GraphStep{Model: s}
		switch typ {
		case "splitter":
			if model, w, ok := strings.Cut(s, "*"); ok {
				n, err := strconv.Atoi(w)
				if err != nil {
					return fleet.Graph{}, fmt.Errorf("graph entry %q: weight in %q: %v", entry, s, err)
				}
				step.Model, step.Weight = model, n
			} else {
				step.Weight = 1
			}
		case "switch":
			cond, model, ok := strings.Cut(s, "=")
			if !ok {
				return fleet.Graph{}, fmt.Errorf("graph entry %q: switch step %q is not cond=model", entry, s)
			}
			step.Condition, step.Model = cond, model
		}
		node.Steps = append(node.Steps, step)
	}
	return fleet.Graph{Name: name, Root: "root", Nodes: []fleet.GraphNode{node}}, nil
}
