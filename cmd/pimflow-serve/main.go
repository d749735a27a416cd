// Command pimflow-serve runs the concurrent inference service over the
// simulated GPU+PIM machine as an HTTP JSON API:
//
//	pimflow-serve -addr :8080 -load mobilenet-v2,resnet-50 -policy PIMFlow
//
//	GET    /healthz                  liveness + drain state + per-model latency breakdown
//	GET    /metrics                  Prometheus-style text dump (JSON via Accept or /metrics.json)
//	GET    /debug/requests           request-lifecycle ring (model/slo/outcome/n filters)
//	GET    /v1/models                list loaded models
//	POST   /v1/models/{name}         load a model (JSON ModelSpec body)
//	DELETE /v1/models/{name}         unload a model
//	POST   /v1/models/{name}/infer   run one inference
//
// Each -load entry is name=model (or just a model-zoo name), optionally
// followed by semicolon-separated per-model options:
//
//	-load "gold=mobilenet-v2;slo=gold;batch=8;cycles=200000,bronze=mobilenet-v2;slo=bronze"
//
// with batch=N (max coalesced batch), window=D (wall batching window,
// a Go duration of whole milliseconds), cycles=N (virtual batching
// window for pinned-arrival traffic), and slo=class (latency class:
// gold, silver, bronze); serve.ParseLoads rejects zero, negative, and
// sub-millisecond values instead of falling back to the defaults.
// -policy, -channels, -pim_channels, and the global batching/SLO flags
// (-max_batch, -batch_window, -batch_cycles, -slo) apply to every
// preload that does not override them. Inference latency is accounted
// in simulated cycles on one shared virtual timeline: requests whose
// models were compiled onto disjoint channel slices overlap, contending
// requests queue, same-model requests coalesce into batches.
//
// SIGINT/SIGTERM drains gracefully: queued requests finish, new ones get
// 503, and the profile cache (when -profile-cache is set) is saved. With
// -verify the server records the schedule certificate (every lease, its
// member requests, every release's frontier stamp) and checks the SR-*
// rules at drain, exiting nonzero on any violation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pimflow/internal/obs"
	"pimflow/internal/profcache"
	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		load       = flag.String("load", "", "comma-separated models to preload (name=model or model)")
		policy     = flag.String("policy", "PIMFlow", "offloading policy for preloaded models")
		channels   = flag.Int("channels", 0, "total memory channels each preload compiles against (0: policy default)")
		pimCh      = flag.Int("pim_channels", 0, "PIM-enabled channels of each preload's slice (0: policy default)")
		machineGPU = flag.Int("machine_gpu", 16, "GPU channel groups of the served machine")
		machinePIM = flag.Int("machine_pim", 16, "PIM channel groups of the served machine")
		queueDepth = flag.Int("queue", 64, "admission queue depth")
		admission  = flag.String("admission", "reject", "backpressure policy when the queue is full: reject | block | shed-oldest")
		workers    = flag.Int("workers", 4, "request-processing goroutines")
		maxBatch   = flag.Int("max_batch", 1, "largest same-model coalesced batch (1: no batching)")
		batchWin   = flag.Duration("batch_window", 0, "extra wall-clock wait for same-model requests to coalesce")
		batchCyc   = flag.Int64("batch_cycles", 0, "virtual-time batching window for pinned-arrival requests (cycles)")
		sloClass   = flag.String("slo", "", "default latency class for preloads (gold, silver, bronze; empty: best-effort)")
		profFile   = flag.String("profile-cache", "", "JSON profile-cache file: loaded at startup, saved at shutdown")
		requestLog = flag.Int("request_log", 512, "request-lifecycle ring size for /debug/requests and stage histograms (0: tracking off)")
		verifySch  = flag.Bool("verify", false, "record the schedule certificate and check the SR-* rules at drain (nonzero exit on violations)")
		traceFile  = flag.String("trace", "", "Chrome trace file written at shutdown (request lanes + execution timeline)")
		drainWait  = flag.Duration("drain", 30*time.Second, "graceful-drain budget at shutdown")
		verbose    = flag.Bool("v", false, "info-level structured logs on stderr")
		vverbose   = flag.Bool("vv", false, "debug-level structured logs on stderr")
	)
	flag.Parse()
	switch {
	case *vverbose:
		obs.SetVerbosity(2)
	case *verbose:
		obs.SetVerbosity(1)
	}
	if err := run(*addr, *load, *policy, *channels, *pimCh, *machineGPU, *machinePIM,
		*queueDepth, *admission, *workers, *maxBatch, *batchWin, *batchCyc, *sloClass,
		*profFile, *requestLog, *traceFile, *drainWait, *verifySch); err != nil {
		fmt.Fprintln(os.Stderr, "pimflow-serve:", err)
		os.Exit(1)
	}
}

func run(addr, load, policy string, channels, pimCh, machineGPU, machinePIM,
	queueDepth int, admission string, workers, maxBatch int,
	batchWin time.Duration, batchCyc int64, sloClass, profFile string,
	requestLog int, traceFile string, drainWait time.Duration, verifySch bool) error {
	adm, err := serve.ParseAdmissionPolicy(admission)
	if err != nil {
		return err
	}
	profiles := profcache.New()
	if profFile != "" {
		n, err := profiles.Load(profFile)
		if err != nil {
			return err
		}
		if n > 0 {
			fmt.Printf("profile cache: loaded %d entries from %s\n", n, profFile)
		}
	}
	var trace *obs.Trace
	if traceFile != "" {
		trace = obs.NewTrace()
	}
	srv, err := serve.NewServer(serve.Config{
		Machine:           serve.Machine{GPUChannels: machineGPU, PIMChannels: machinePIM},
		QueueDepth:        queueDepth,
		Admission:         adm,
		Workers:           workers,
		MaxBatch:          maxBatch,
		BatchWindow:       batchWin,
		BatchWindowCycles: batchCyc,
		Profiles:          profiles,
		RequestLog:        requestLog,
		Trace:             trace,
		Certify:           verifySch,
	})
	if err != nil {
		return err
	}

	loads, err := serve.ParseLoads(load, serve.ModelSpec{
		Policy: policy, TotalChannels: channels, PIMChannels: pimCh, SLO: sloClass,
	}, false)
	if err != nil {
		return err
	}
	for _, l := range loads {
		spec := l.Spec
		lm, err := srv.Registry().Load(spec)
		if err != nil {
			return fmt.Errorf("preload %q: %w", spec.Name, err)
		}
		slo := lm.SLO.Name
		if slo == "" {
			slo = "best-effort"
		}
		fmt.Printf("loaded %s (model %s, policy %s, slo %s): solo %d cycles, %d GPU + %d PIM channels, max batch %d, compile %.2fs\n",
			lm.Spec.Name, lm.Spec.Model, lm.Policy, slo, lm.Solo.DurationCycles(),
			lm.Demand.GPU, lm.Demand.PIM, lm.Batch.MaxBatch, lm.CompileSeconds)
	}

	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("serving on %s (machine: %d GPU + %d PIM channel groups, queue %d/%s, %d workers)\n",
			addr, machineGPU, machinePIM, queueDepth, adm, workers)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("received %s, draining (budget %s)\n", s, drainWait)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if verifySch {
		cert := srv.Certificate()
		if diags := verify.Schedule(cert); len(diags) > 0 {
			for _, d := range diags {
				fmt.Fprintln(os.Stderr, d)
			}
			return fmt.Errorf("schedule certificate: %d SR-* violation(s) across %d leases", len(diags), len(cert.Leases))
		}
		fmt.Printf("schedule certificate: %d leases, %d requests verified clean (SR-*)\n",
			len(cert.Leases), len(cert.Requests))
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if profFile != "" {
		if err := profiles.Save(profFile); err != nil {
			return err
		}
		fmt.Printf("profile cache: %s; saved to %s\n", profiles.Stats(), profFile)
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := trace.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d events written to %s\n", trace.Len(), traceFile)
	}
	fmt.Println("drained cleanly")
	return nil
}
