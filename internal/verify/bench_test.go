package verify_test

import (
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/search"
	"pimflow/internal/verify"
)

// BenchmarkVerifyCompiled measures the compile gate the model registry
// runs on every load: verify.Compiled over the five paper CNNs' compiled
// graphs (graph invariants plus every offloaded layer's command stream).
// Compilation happens once, outside the timer.
func BenchmarkVerifyCompiled(b *testing.B) {
	opts := search.DefaultOptions(search.PolicyPIMFlow)
	rc := opts.RuntimeConfig()
	var compiled []*graph.Graph
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			b.Fatal(err)
		}
		out, _, err := search.Compile(g, opts)
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		compiled = append(compiled, out)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range compiled {
			if diags := verify.Compiled(g, rc.PIM, rc.Codegen); len(diags) != 0 {
				b.Fatal(verify.AsError(diags))
			}
		}
	}
}
