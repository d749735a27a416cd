package load

import (
	"context"
	"testing"

	"pimflow/internal/serve"
)

// benchScenario replays one builtin scenario per iteration and reports
// the replay's wall-clock throughput plus the simulated-latency
// percentiles of the served distribution. Together with
// BenchmarkServeThroughput these are the serving numbers the BENCH
// snapshots track PR over PR.
func benchScenario(b *testing.B, name string) {
	sc, err := Builtin(name)
	if err != nil {
		b.Fatal(err)
	}
	var rep *Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = Run(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rep.Served == 0 {
		b.Fatalf("nothing served: %+v", rep)
	}
	b.ReportMetric(rep.ReqPerSec, "req/s")
	b.ReportMetric(float64(rep.P50), "p50_simcycles")
	b.ReportMetric(float64(rep.P99), "p99_simcycles")
	b.ReportMetric(float64(rep.P999), "p999_simcycles")
	b.ReportMetric(float64(rep.Shed), "shed")
	b.ReportMetric(float64(rep.SLOMiss), "slo_miss")
}

func BenchmarkReplayPoisson(b *testing.B) { benchScenario(b, "poisson") }
func BenchmarkReplayDiurnal(b *testing.B) { benchScenario(b, "diurnal") }
func BenchmarkReplayBursty(b *testing.B)  { benchScenario(b, "bursty") }

// BenchmarkReplayPerfbenchPoisson is the repository benchmark's
// replay-poisson configuration in-package: the builtin Poisson scenario
// stretched to 100k requests, replayed on a fresh server per iteration
// with the request log (512 spans) and certification on. Only the
// load.Replay call is timed; the models are compiled once.
func BenchmarkReplayPerfbenchPoisson(b *testing.B) {
	sc, err := Builtin("poisson")
	if err != nil {
		b.Fatal(err)
	}
	sc.Seed, sc.Requests = 1, 100_000
	sc = sc.WithDefaults()
	loader, err := serve.NewServer(serve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer loader.Shutdown(context.Background())
	if err := LoadModels(loader, sc); err != nil {
		b.Fatal(err)
	}
	reqs, err := Generate(sc)
	if err != nil {
		b.Fatal(err)
	}
	adm, err := serve.ParseAdmissionPolicy(sc.Admission)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := serve.NewServer(serve.Config{
			QueueDepth: sc.QueueDepth, Admission: adm, RequestLog: 512, Certify: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range sc.Models {
			lm, err := loader.Registry().Get(m.Name)
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Registry().Install(lm); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		rep, err := Replay(srv, sc, reqs)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Served != len(reqs) || !rep.Certified {
			b.Fatalf("served %d of %d, certified %v", rep.Served, len(reqs), rep.Certified)
		}
		srv.Shutdown(context.Background())
		b.StartTimer()
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
