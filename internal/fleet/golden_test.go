package fleet_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"pimflow/internal/fleet"
	"pimflow/internal/load"
	"pimflow/internal/serve"
)

// digestJSON is the SHA-256 of v's JSON encoding (maps encode with
// sorted keys, so the digest is a pure function of the value).
func digestJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenDigest pins one replay: its report (wall-clock fields zeroed)
// and its schedule (load) or fleet (fleet) certificate.
type goldenDigest struct{ report, cert string }

// goldenFleetScenario is a 2-machine fleet whose traffic mixes a
// cross-machine Sequence graph (two whole-machine models, so every
// route hops machines), an Ensemble, and plain requests, at a rate and
// queue depth that make admission shed or reject. The second-hop model
// runs unbatched: the replay flushes a machine's overdue windows only
// when a hop lands on that machine, so a continuation can arrive
// earlier than hops the machine already holds, and a window there
// would coalesce arrivals past its bound (SR-WINDOW).
func goldenFleetScenario(admission string) fleet.Scenario {
	return fleet.Scenario{
		Scenario: load.Scenario{
			Name: "golden-fleet-" + admission, Seed: 31, Requests: 1500, Process: "bursty",
			RatePerMCycle: 20, BurstFactor: 8, BurstDwell: 50_000,
			QueueDepth: 8, Admission: admission,
			Models: []load.ModelLoad{{Name: "chain"}, {Name: "panel"},
				{Name: "front", Model: "toy", Policy: "PIMFlow", TotalChannels: 32, PIMChannels: 16,
					SLO: "gold", MaxBatch: 8, WindowCycles: 20_000}},
		},
		Machines: 2,
		Backends: []load.ModelLoad{
			{Name: "back", Model: "toy", Policy: "PIMFlow", TotalChannels: 32, PIMChannels: 16,
				MaxBatch: 1},
		},
		Graphs: []fleet.Graph{
			{Name: "chain", Root: "root", Nodes: []fleet.GraphNode{
				{Name: "root", Type: "sequence", Steps: []fleet.GraphStep{{Model: "front"}, {Model: "back"}}},
			}},
			{Name: "panel", Root: "root", Nodes: []fleet.GraphNode{
				{Name: "root", Type: "ensemble", Steps: []fleet.GraphStep{{Model: "front"}, {Model: "back"}}},
			}},
		},
		Certify: true,
	}
}

// TestReplayGoldenDigests pins the deterministic replays byte for byte:
// load.Replay on the toy scenario under every arrival process and both
// open-loop admission policies, and fleet.Replay on two machines with
// cross-machine Sequence routes, Ensemble joins, and overload. Any
// change to admission, batching, shed-victim order, drain order, or
// graph routing moves a digest.
func TestReplayGoldenDigests(t *testing.T) {
	want := map[string]goldenDigest{
		"load/poisson/shed-oldest": {
			"ed5410fdcde0c56698679075fe92b257477fbf49cb97b1bf24c7d316438fe3f6",
			"5ce4692b0d11fd6392005b0854730e2967ed4e548ddfab84a42c37448a5e293b"},
		"load/diurnal/shed-oldest": {
			"51317cea599fcd47ef1d8e12e1b5674ef40f8ae11d98f8d2ad01a5cbdcdb6aba",
			"99c85c68584183f643837a62060f7925be185791269cada5a69e29ad06d6ad8f"},
		"load/bursty/shed-oldest": {
			"0684a0a044d1a1bcf8f04d0645410338565feae4b07fc1e1bdf88101fc183a40",
			"8644350678c1e681abb0af4302eafaad6a3726cd5268b8f1e6b36668fb063af3"},
		"load/poisson/reject": {
			"2acc3b3c99d83325e36d9dfe4c3340ef9715657a852707daaa00b1b117671b2b",
			"759eacca419eaf5d1e031b181c95c6f8a1bd4c16e95111df90df8aab0f73e9fb"},
		"load/diurnal/reject": {
			"564f83c64baddcaa3a831e0897b40e0a8722bf26248c0f8346d8fdcd2ed26618",
			"e4312e40aaa4d01840968b135182f07eb4a2d8a3002cc9bbcd06655d19ee2437"},
		"load/bursty/reject": {
			"0b22d9407770dc9d09da25abfa6b7936592395b28fa5dd0eb225947ce55d4fca",
			"2edcd0bab67814e5c5c65d122cb10ce41a4dd2ef3e4775faec1d66d89e1753f0"},
		"fleet/shed-oldest": {
			"9790df2ec51646e1252e0583a57a1f615f0efaf1514dd9130c0019896d538639",
			"96fd1dc8b629b9a607a451ada2e09ba9890e97e2026945c866f5e6a8982d71a1"},
		"fleet/reject": {
			"77ec7b696e6d4aa958e8481edcc86e93fec75da3f3e12b1eef413be4a992a9d1",
			"d86e1b051c72ae9f2cb7212153edba6ce4af6a11fba5e1870829a4ec81d6de56"},
	}
	check := func(name string, rep *load.Report, cert any) {
		t.Helper()
		got := goldenDigest{report: digestJSON(t, stripWall(rep)), cert: digestJSON(t, cert)}
		if got != want[name] {
			t.Errorf("%s: digests moved\n got  {%q, %q}\n want {%q, %q}",
				name, got.report, got.cert, want[name].report, want[name].cert)
		}
	}

	for _, admission := range []string{"shed-oldest", "reject"} {
		for _, process := range []string{"poisson", "diurnal", "bursty"} {
			sc := toyFleetScenario(13, 2000, process, 1, nil).Scenario
			sc.Admission = admission
			reqs, err := load.Generate(sc)
			if err != nil {
				t.Fatal(err)
			}
			adm, err := serve.ParseAdmissionPolicy(sc.Admission)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := serve.NewServer(serve.Config{QueueDepth: sc.QueueDepth, Admission: adm, Certify: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Shutdown(context.Background()) })
			if err := load.LoadModels(srv, sc); err != nil {
				t.Fatal(err)
			}
			rep, err := load.Replay(srv, sc, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Shed+rep.Rejected == 0 {
				t.Fatalf("load/%s/%s: no admission failures; the pin would not cover the overload path", process, admission)
			}
			check("load/"+process+"/"+admission, rep, srv.Certificate())
		}

		sc := goldenFleetScenario(admission)
		reqs, err := load.Generate(sc.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		f, rep := runFleet(t, sc, reqs)
		cert := f.Certificate()
		crossed := false
		machineOf := map[int64]string{}
		for _, h := range cert.Hops {
			if m, ok := machineOf[h.Route]; ok && m != h.Machine {
				crossed = true
			}
			machineOf[h.Route] = h.Machine
		}
		if !crossed || rep.Shed+rep.Rejected == 0 || rep.Served == 0 {
			t.Fatalf("fleet/%s: crossed machines %v, shed %d, rejected %d, served %d; the pin needs all three paths",
				admission, crossed, rep.Shed, rep.Rejected, rep.Served)
		}
		check("fleet/"+admission, rep, cert)
	}
}
