package verify_test

import (
	"strings"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/obs"
	"pimflow/internal/runtime"
	"pimflow/internal/transform"
	"pimflow/internal/verify"
)

func TestDiagnosticString(t *testing.T) {
	d := verify.Diagnostic{Rule: "TR-COMP-NOBUF", Channel: 3, Index: 7, Command: "COMP", Msg: "boom"}
	got := d.String()
	for _, want := range []string{"[TR-COMP-NOBUF]", "channel 3", "cmd 7", "(COMP)", "boom"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
	g := verify.Diagnostic{Rule: "GR-NAME-DUP", Node: "conv1", Tensor: "y", Channel: -1, Index: -1, Msg: "dup"}
	gs := g.String()
	for _, want := range []string{`node "conv1"`, `tensor "y"`} {
		if !strings.Contains(gs, want) {
			t.Errorf("String() = %q, missing %q", gs, want)
		}
	}
	if strings.Contains(gs, "channel") || strings.Contains(gs, "cmd") {
		t.Errorf("graph diagnostic should omit trace context: %q", gs)
	}
}

func TestAsError(t *testing.T) {
	if err := verify.AsError(nil); err != nil {
		t.Fatalf("AsError(nil) = %v, want nil", err)
	}
	many := make([]verify.Diagnostic, 13)
	for i := range many {
		many[i] = verify.Diagnostic{Rule: "GR-NAME", Channel: -1, Index: -1, Msg: "x"}
	}
	err := verify.AsError(many)
	if err == nil {
		t.Fatal("AsError on 13 diags = nil")
	}
	if !strings.Contains(err.Error(), "13 violation(s)") {
		t.Errorf("error should carry the exact count: %v", err)
	}
	if !strings.Contains(err.Error(), "and 3 more") {
		t.Errorf("error should truncate past 10: %v", err)
	}
}

func TestRecord(t *testing.T) {
	verify.Record(nil, []verify.Diagnostic{{Rule: "GR-NAME"}}) // nil-safe
	m := obs.NewMetrics()
	verify.Record(m, nil) // empty is a no-op
	if got := m.Counter("verify.violations"); got != 0 {
		t.Fatalf("empty Record bumped the counter to %d", got)
	}
	verify.Record(m, []verify.Diagnostic{
		{Rule: "GR-NAME"}, {Rule: "GR-NAME"}, {Rule: "TR-DRAIN"},
	})
	if got := m.Counter("verify.violations"); got != 3 {
		t.Errorf("total = %d, want 3", got)
	}
	if got := m.Counter(obs.LabeledKey("verify.violations", "rule", "GR-NAME")); got != 2 {
		t.Errorf("GR-NAME = %d, want 2", got)
	}
	if got := m.Counter(obs.LabeledKey("verify.violations", "rule", "TR-DRAIN")); got != 1 {
		t.Errorf("TR-DRAIN = %d, want 1", got)
	}
}

func TestCleanGraphHasNoDiagnostics(t *testing.T) {
	g := reluGraph()
	if diags := verify.Graph(g); len(diags) != 0 {
		t.Fatalf("clean graph: %v", diags)
	}
	if diags := verify.GraphWith(g, verify.Checks{RequireLive: true}); len(diags) != 0 {
		t.Fatalf("clean live graph: %v", diags)
	}
}

// TestMDDPSplitStaysClean pins the contract between the transform and the
// checker: the real SplitMDDP output passes the MD-DP rules at several
// ratios, including after dead-code elimination under RequireLive.
func TestMDDPSplitStaysClean(t *testing.T) {
	for _, ratio := range []float64{0.3, 0.5, 0.7} {
		b := graph.NewBuilder("mddp", 1, 16, 16, 8)
		b.Conv(16, 3, 3, 1, 1, [4]int{1, 1, 1, 1}, 1).Relu()
		g := b.MustFinish()
		if err := g.InferShapes(); err != nil {
			t.Fatal(err)
		}
		var conv string
		for _, n := range g.Nodes {
			if n.Op == graph.OpConv {
				conv = n.Name
			}
		}
		if err := transform.SplitMDDP(g, conv, ratio); err != nil {
			t.Fatalf("ratio %v: %v", ratio, err)
		}
		if diags := verify.Graph(g); len(diags) != 0 {
			t.Errorf("ratio %v: split graph fails verification: %v", ratio, diags)
		}
		transform.EliminateDeadNodes(g)
		if diags := verify.GraphWith(g, verify.Checks{RequireLive: true}); len(diags) != 0 {
			t.Errorf("ratio %v: post-DCE graph fails liveness verification: %v", ratio, diags)
		}
	}
}

// TestPipelineChainStaysClean does the same for the pipelining pass.
func TestPipelineChainStaysClean(t *testing.T) {
	b := graph.NewBuilder("pipe", 1, 16, 16, 8)
	b.Conv(16, 3, 3, 1, 1, [4]int{1, 1, 1, 1}, 1).PointwiseConv(16).Relu()
	g := b.MustFinish()
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	var convs []string
	for _, n := range g.Nodes {
		if n.Op == graph.OpConv {
			convs = append(convs, n.Name)
		}
	}
	if len(convs) != 2 {
		t.Fatalf("want 2 convs, got %v", convs)
	}
	if err := transform.PipelineChain(g, convs, 2, 0); err != nil {
		t.Fatal(err)
	}
	if diags := verify.Graph(g); len(diags) != 0 {
		t.Errorf("pipelined graph fails verification: %v", diags)
	}
}

// TestCompiledRejectsUnoffloadablePIMNodes keeps the gate in step with
// the runtime: a depthwise conv and a Relu annotated for PIM make
// runtime.Execute fail, so verify.Compiled must flag both before a model
// carrying them is served.
func TestCompiledRejectsUnoffloadablePIMNodes(t *testing.T) {
	b := graph.NewBuilder("dw", 1, 8, 8, 4)
	b.Light = true
	b.DepthwiseConv(3, 3, 1, 1, [4]int{1, 1, 1, 1}).Relu()
	g := b.MustFinish()
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		n.Exec.Device = graph.DevicePIM
	}
	rc := runtime.DefaultConfig()
	if _, err := runtime.Execute(g, rc); err == nil || !strings.Contains(err.Error(), "not offloadable") {
		t.Fatalf("runtime.Execute = %v, want a not-offloadable error", err)
	}
	diags := verify.Compiled(g, rc.PIM, rc.Codegen)
	flagged := map[string]bool{}
	for _, d := range diags {
		if d.Rule == verify.RuleGraphDevice {
			flagged[d.Node] = true
		}
	}
	for _, n := range g.Nodes {
		if !flagged[n.Name] {
			t.Errorf("node %q (%s) annotated for PIM not flagged %s; got %v", n.Name, n.Op, verify.RuleGraphDevice, diags)
		}
	}
}
