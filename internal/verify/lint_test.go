package verify_test

import (
	"fmt"
	"reflect"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/models"
	"pimflow/internal/pim"
	"pimflow/internal/verify"
)

// TestTraceRuleCasesMatchReference replays every TR-* catalogue trace
// through the streaming linter and the materialized reference: rule,
// channel, command index, command kind and message must all agree.
func TestTraceRuleCasesMatchReference(t *testing.T) {
	for id, mk := range traceRuleCases {
		t.Run(id, func(t *testing.T) {
			tr, cfg := mk()
			got, want := verify.Trace(tr, cfg), verify.RefTrace(tr, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("streaming linter diverges from reference:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// equivConfigs adds a two-buffer device (GWRITE_2) to the sweep's
// default (GWRITE_4) and Newton (GWRITE) configurations.
func equivConfigs() map[string]pim.Config {
	twoBuf := pim.DefaultConfig()
	twoBuf.GlobalBufs = 2
	return map[string]pim.Config{
		"default": pim.DefaultConfig(),
		"newton":  pim.NewtonConfig(),
		"twobuf":  twoBuf,
	}
}

var equivOpts = map[string]codegen.Opts{
	"default":   codegen.DefaultOpts(),
	"comp":      {Granularity: codegen.GranComp, StridedGWrite: false},
	"gact":      {Granularity: codegen.GranGAct, StridedGWrite: true},
	"readres":   {Granularity: codegen.GranReadRes, StridedGWrite: true},
	"nostrided": {Granularity: codegen.GranComp, StridedGWrite: true},
}

// TestWorkloadMatchesReference holds the streaming Workload to the
// materialized one (Generate, lint, recount) across workload shapes,
// device configurations and codegen options, unloadable workloads
// included.
func TestWorkloadMatchesReference(t *testing.T) {
	workloads := []codegen.Workload{
		{M: 1, K: 16, N: 16, Segments: 1},
		{M: 4, K: 64, N: 32, Segments: 1},
		{M: 16, K: 2048, N: 64, Segments: 1},
		{M: 196, K: 576, N: 128, Segments: 1},
		{M: 3, K: 100, N: 7, Segments: 1},
		{M: 64, K: 64, N: 1024, Segments: 1},
		{M: 2, K: 4096, N: 4, Segments: 1},
		{M: 8, K: 512, N: 256, Segments: 3},
		{M: 196, K: 576, N: 160, Segments: 3, Groups: 4},
		{M: 0, K: 16, N: 16, Segments: 1},
	}
	for cfgName, cfg := range equivConfigs() {
		for optName, o := range equivOpts {
			for _, w := range workloads {
				name := fmt.Sprintf("%s/%s/M%dK%dN%dS%d", cfgName, optName, w.M, w.K, w.N, w.Segments)
				t.Run(name, func(t *testing.T) {
					got, want := verify.Workload(w, cfg, o), verify.RefWorkload(w, cfg, o)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("streaming Workload diverges from reference:\n got %v\nwant %v", got, want)
					}
				})
			}
		}
	}
}

// TestWorkloadMatchesReferencePaperModels sweeps every PIM-candidate
// layer of the five paper models through both linters.
func TestWorkloadMatchesReferencePaperModels(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes every paper-model layer's trace")
	}
	cfg, opts := pim.DefaultConfig(), codegen.DefaultOpts()
	for _, name := range models.EvaluatedCNNs() {
		t.Run(name, func(t *testing.T) {
			g, err := models.Build(name, models.Options{Light: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range g.Nodes {
				if !g.IsPIMCandidate(n) {
					continue
				}
				w, err := codegen.NodeWorkload(g, n)
				if err != nil {
					t.Fatalf("%s: %v", n.Name, err)
				}
				got, want := verify.Workload(w, cfg, opts), verify.RefWorkload(w, cfg, opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: streaming Workload diverges from reference:\n got %v\nwant %v", n.Name, got, want)
				}
			}
		})
	}
}

// TestWorkloadAllocsIndependentOfStreamLength pins the streaming gate's
// O(channels) allocation: ten times the input vectors (ten times the
// commands) must not allocate more.
func TestWorkloadAllocsIndependentOfStreamLength(t *testing.T) {
	cfg, opts := pim.DefaultConfig(), codegen.DefaultOpts()
	small := codegen.Workload{M: 196, K: 576, N: 160, Segments: 3}
	large := small
	large.M *= 10
	allocs := func(w codegen.Workload) float64 {
		return testing.AllocsPerRun(5, func() {
			if diags := verify.Workload(w, cfg, opts); len(diags) != 0 {
				t.Fatalf("%+v: %v", w, verify.AsError(diags))
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("Workload allocates %v times for M=%d but %v for M=%d", a, small.M, b, large.M)
	}
}

// decodeTrace turns fuzz bytes into a configuration and a hand-built
// trace. Every field is taken raw (burst and column counts as signed 16-bit
// values, wide enough to overflow the global buffer), so the decoder
// reaches unknown kinds, zero and negative bursts and columns, and
// duplicate, negative or out-of-range channel ids.
func decodeTrace(data []byte) (*pim.Trace, pim.Config) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cfgs := []pim.Config{pim.DefaultConfig(), pim.NewtonConfig(), pim.DefaultConfig()}
	cfgs[2].GlobalBufs = 2
	cfg := cfgs[int(next())%len(cfgs)]
	tr := &pim.Trace{}
	for nch := int(next()) % 5; nch > 0; nch-- {
		ct := pim.ChannelTrace{Channel: int(int8(next()))}
		for ncmd := int(next()) % 24; ncmd > 0; ncmd-- {
			kind, arg := next(), int(int16(uint16(next())<<8|uint16(next())))
			cmd := pim.Command{Kind: pim.Kind(kind & 0x7f), NewRow: kind&0x80 != 0}
			if cmd.Kind == pim.KindComp {
				cmd.Cols = arg
			} else {
				cmd.Bursts = arg
			}
			ct.Commands = append(ct.Commands, cmd)
		}
		tr.Channels = append(tr.Channels, ct)
	}
	return tr, cfg
}

// encodeTrace is decodeTrace's inverse for well-formed inputs (used to
// seed the corpus).
func encodeTrace(cfgIdx int, tr *pim.Trace) []byte {
	out := []byte{byte(cfgIdx), byte(len(tr.Channels))}
	for _, ct := range tr.Channels {
		out = append(out, byte(int8(ct.Channel)), byte(len(ct.Commands)))
		for _, cmd := range ct.Commands {
			kind := byte(cmd.Kind)
			if cmd.NewRow {
				kind |= 0x80
			}
			arg := cmd.Bursts
			if cmd.Kind == pim.KindComp {
				arg = cmd.Cols
			}
			out = append(out, kind, byte(uint16(arg)>>8), byte(arg))
		}
	}
	return out
}

// FuzzLintStream holds the streaming linter to the materialized reference
// on arbitrary command streams: identical diagnostics, field for field,
// and a coverage tally equal to a CountOf pass over the same channels.
func FuzzLintStream(f *testing.F) {
	for id, mk := range traceRuleCases {
		tr, cfg := mk()
		idx := 0
		if cfg.GlobalBufs == pim.NewtonConfig().GlobalBufs {
			idx = 1
		}
		seed := encodeTrace(idx, tr)
		if got, _ := decodeTrace(seed); !reflect.DeepEqual(verify.Trace(got, cfg), verify.Trace(tr, cfg)) {
			f.Fatalf("%s seed does not round-trip through the decoder", id)
		}
		f.Add(seed)
	}
	clean := channelOf(gwrite, gact, comp, comp, readres, gact, comp, readres)
	clean.Channels = append(clean.Channels, pim.ChannelTrace{Channel: 3, Commands: clean.Channels[0].Commands})
	f.Add(encodeTrace(0, clean))
	f.Add(encodeTrace(2, clean))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cfg := decodeTrace(data)
		got, want := verify.Trace(tr, cfg), verify.RefTrace(tr, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("streaming linter diverges from reference on %+v:\n got %v\nwant %v", tr, got, want)
		}
		var count pim.Counts
		for _, ct := range tr.Channels {
			count.Add(pim.CountOf(ct))
		}
		tally := verify.LintTally(tr, cfg)
		if tally.GWBursts != count.GWBursts || tally.ColIOs != count.ColIOs ||
			tally.ReadRes != count.ReadRes || tally.RRBursts != count.RRBursts {
			t.Fatalf("coverage tally %+v disagrees with CountOf %+v", tally, count)
		}
	})
}
