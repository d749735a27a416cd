package verify

import (
	"fmt"

	"pimflow/internal/graph"
)

// Checks selects optional graph invariants beyond the always-on set.
type Checks struct {
	// RequireLive enforces GR-DEAD: every node's output is a graph output
	// or consumed by another node. This is the post-DCE invariant; graphs
	// mid-transformation legitimately carry dead branches, so it is off by
	// default.
	RequireLive bool
}

// Graph checks the default invariant set: structural well-formedness,
// topology, shape consistency against re-inference, and — where execution
// annotations mark transformed regions — MD-DP and pipeline soundness.
// It returns all violations found, or nil for a clean graph.
func Graph(g *graph.Graph) []Diagnostic { return GraphWith(g, Checks{}) }

// GraphWith is Graph with optional checks enabled.
func GraphWith(g *graph.Graph, c Checks) []Diagnostic {
	var diags []Diagnostic

	// Phase 1: structural rules that everything later depends on. A graph
	// failing these can make inference index out of range, so stop here.
	diags = append(diags, checkStructure(g)...)
	diags = append(diags, checkTopology(g)...)
	if len(diags) > 0 {
		return diags
	}

	// Phase 2: re-infer shapes on a clone and compare. An inference error
	// poisons every downstream shape, so stop on it too.
	shapeDiags, inferred := checkShapes(g)
	diags = append(diags, shapeDiags...)
	if inferred == nil {
		return diags
	}

	// Phase 3: transform soundness and device placement, gated on
	// execution annotations (never serialized, so everything ReadJSON can
	// produce is exempt by construction).
	diags = append(diags, checkMDDP(g)...)
	diags = append(diags, checkPipeline(g)...)
	diags = append(diags, checkDevice(inferred)...)

	if c.RequireLive {
		diags = append(diags, checkLiveness(g)...)
	}
	return diags
}

func checkStructure(g *graph.Graph) []Diagnostic {
	var diags []Diagnostic
	seen := map[string]bool{}
	for _, n := range g.Nodes {
		if n.Name == "" {
			diags = append(diags, graphDiag(RuleGraphName, "", "", fmt.Sprintf("unnamed %s node", n.Op)))
		} else if seen[n.Name] {
			diags = append(diags, graphDiag(RuleGraphNameDup, n.Name, "", "node name used more than once"))
		}
		seen[n.Name] = true
		min, known := graph.MinInputs(n.Op)
		if !known {
			diags = append(diags, graphDiag(RuleGraphOp, n.Name, "", fmt.Sprintf("unknown op %q", n.Op)))
		} else if len(n.Inputs) < min {
			diags = append(diags, graphDiag(RuleGraphArity, n.Name, "",
				fmt.Sprintf("%s has %d inputs, needs >= %d", n.Op, len(n.Inputs), min)))
		}
		if len(n.Outputs) == 0 {
			diags = append(diags, graphDiag(RuleGraphOutNone, n.Name, "", "node has no outputs"))
		}
		for _, t := range n.Inputs {
			if t == "" {
				diags = append(diags, graphDiag(RuleGraphTensorName, n.Name, "", "empty input tensor name"))
			}
		}
		for _, t := range n.Outputs {
			if t == "" {
				diags = append(diags, graphDiag(RuleGraphTensorName, n.Name, "", "empty output tensor name"))
			}
		}
	}
	for _, in := range g.Inputs {
		if _, ok := g.Tensors[in]; !ok {
			diags = append(diags, graphDiag(RuleGraphInputUndecl, "", in, "graph input has no tensor record"))
		}
	}
	for _, out := range g.Outputs {
		if _, ok := g.Tensors[out]; !ok {
			diags = append(diags, graphDiag(RuleGraphOutputUndecl, "", out, "graph output has no tensor record"))
		}
	}
	for _, name := range g.TensorNames() {
		ti := g.Tensors[name]
		if ti == nil || ti.Shape == nil {
			continue
		}
		for _, d := range ti.Shape {
			if d <= 0 {
				diags = append(diags, graphDiag(RuleGraphShapeDim, "", name,
					fmt.Sprintf("declared shape %v has a non-positive dim", ti.Shape)))
				break
			}
		}
	}
	return diags
}

// checkTopology verifies unique producers, resolvable inputs, and
// acyclicity — the same walk as graph.TopoSort, but collecting every
// violation as a structured diagnostic instead of failing on the first.
func checkTopology(g *graph.Graph) []Diagnostic {
	var diags []Diagnostic
	producerOf := map[string]*graph.Node{}
	for _, n := range g.Nodes {
		for _, out := range n.Outputs {
			if p, dup := producerOf[out]; dup {
				diags = append(diags, graphDiag(RuleGraphProducerDup, n.Name, out,
					fmt.Sprintf("also produced by %q", p.Name)))
				continue
			}
			producerOf[out] = n
		}
	}
	indeg := map[*graph.Node]int{}
	consumers := map[*graph.Node][]*graph.Node{}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			p, ok := producerOf[in]
			if !ok {
				if _, declared := g.Tensors[in]; !declared {
					diags = append(diags, graphDiag(RuleGraphTensorUndecl, n.Name, in,
						"input tensor has no producer and no declaration"))
				}
				continue
			}
			indeg[n]++
			consumers[p] = append(consumers[p], n)
		}
	}
	// Kahn's algorithm; whatever cannot be scheduled sits on a cycle.
	done := 0
	queued := map[*graph.Node]bool{}
	var ready []*graph.Node
	for _, n := range g.Nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
			queued[n] = true
		}
	}
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		done++
		for _, c := range consumers[n] {
			indeg[c]--
			if indeg[c] == 0 && !queued[c] {
				ready = append(ready, c)
				queued[c] = true
			}
		}
	}
	if done < len(g.Nodes) {
		for _, n := range g.Nodes {
			if !queued[n] {
				diags = append(diags, graphDiag(RuleGraphCycle, n.Name, "", "node participates in a dependency cycle"))
			}
		}
	}
	return diags
}

// checkShapes re-runs shape inference on a clone and reports declared
// shapes that disagree with the inferred ones. It also returns the
// inferred clone, or nil when inference itself failed.
func checkShapes(g *graph.Graph) ([]Diagnostic, *graph.Graph) {
	clone := g.Clone()
	if err := clone.InferShapes(); err != nil {
		return []Diagnostic{graphDiag(RuleGraphInfer, "", "", err.Error())}, nil
	}
	var diags []Diagnostic
	for _, name := range g.TensorNames() {
		want := g.Tensors[name]
		got := clone.Tensors[name]
		if want == nil || got == nil || !want.Shape.Valid() || !got.Shape.Valid() {
			continue
		}
		if !want.Shape.Equal(got.Shape) {
			diags = append(diags, graphDiag(RuleGraphShapeMismatch, "", name,
				fmt.Sprintf("declared shape %v, inference gives %v", want.Shape, got.Shape)))
		}
	}
	return diags, clone
}

// checkDevice applies the runtime's offloadability test to every PIM
// annotation, over inferred shapes so depthwise convs are always seen.
func checkDevice(g *graph.Graph) []Diagnostic {
	var diags []Diagnostic
	for _, n := range g.Nodes {
		if n.Exec.Device == graph.DevicePIM && !g.IsPIMCandidate(n) {
			diags = append(diags, graphDiag(RuleGraphDevice, n.Name, "",
				fmt.Sprintf("%s node annotated for PIM is not PIM-offloadable", n.Op)))
		}
	}
	return diags
}

// checkMDDP validates every MD-DP split: the two halves pair through one
// Concat (GR-MDDP-PAIR), and for convolutions the slice/pad arithmetic
// reconstructs exactly the original output height (GR-MDDP-COVER) — the
// rule that catches overlapping or gapped slice ranges, which a plain
// shape check cannot (halo rows legitimately overlap).
func checkMDDP(g *graph.Graph) []Diagnostic {
	var diags []Diagnostic
	pair := func(rule, node, msg string) {
		diags = append(diags, graphDiag(rule, node, "", msg))
	}
	seenConcat := map[string]bool{}
	for _, n := range g.Nodes {
		if n.Exec.Mode != graph.ModeMDDP {
			continue
		}
		cs := g.Consumers(n.Outputs[0])
		if len(cs) != 1 || cs[0].Op != graph.OpConcat {
			pair(RuleGraphMDDPPair, n.Name, "MD-DP half must feed exactly one Concat")
			continue
		}
		c := cs[0]
		if seenConcat[c.Name] {
			continue // pair already checked via the other half
		}
		seenConcat[c.Name] = true
		if len(c.Inputs) != 2 {
			pair(RuleGraphMDDPPair, c.Name, fmt.Sprintf("MD-DP merge Concat has %d inputs, want 2", len(c.Inputs)))
			continue
		}
		if axis := c.Attrs.Int("axis", 1); axis != 1 {
			pair(RuleGraphMDDPPair, c.Name, fmt.Sprintf("MD-DP merge Concat axis %d, want 1", axis))
			continue
		}
		var gpu, pim *graph.Node
		ok := true
		for _, in := range c.Inputs {
			p := g.Producer(in)
			if p == nil || p.Exec.Mode != graph.ModeMDDP {
				pair(RuleGraphMDDPPair, c.Name, fmt.Sprintf("Concat input %q is not an MD-DP half", in))
				ok = false
				break
			}
			switch p.Exec.Device {
			case graph.DeviceGPU:
				gpu = p
			case graph.DevicePIM:
				pim = p
			}
		}
		if !ok {
			continue
		}
		if gpu == nil || pim == nil {
			pair(RuleGraphMDDPPair, c.Name, "MD-DP halves must be one GPU and one PIM node")
			continue
		}
		if gpu.Op != pim.Op {
			pair(RuleGraphMDDPPair, c.Name, fmt.Sprintf("halves have different ops %s vs %s", gpu.Op, pim.Op))
			continue
		}
		if gpu.Exec.GPURatio != pim.Exec.GPURatio {
			pair(RuleGraphMDDPPair, c.Name, fmt.Sprintf("halves disagree on GPU ratio: %v vs %v",
				gpu.Exec.GPURatio, pim.Exec.GPURatio))
			continue
		}
		if gpu.Op == graph.OpConv {
			diags = append(diags, checkMDDPConvCover(g, c, gpu, pim)...)
		}
	}
	return diags
}

// checkMDDPConvCover reconstructs the original convolution from its two
// halves. Both halves slice the same source tensor; the GPU half keeps
// the original top padding and the PIM half the original bottom padding
// (transform.rowRange), so
//
//	(srcH + padT_gpu + padB_pim - kernelH)/strideH + 1
//
// must equal the sum of the halves' output heights. Overlapping slice
// ranges inflate the sum; gapped ranges shrink it; both trip the rule.
func checkMDDPConvCover(g *graph.Graph, c, gpu, pim *graph.Node) []Diagnostic {
	cover := func(node, msg string) []Diagnostic {
		return []Diagnostic{graphDiag(RuleGraphMDDPCover, node, "", msg)}
	}
	gp, err := graph.ConvParamsOf(gpu)
	if err != nil {
		return cover(gpu.Name, err.Error())
	}
	pp, err := graph.ConvParamsOf(pim)
	if err != nil {
		return cover(pim.Name, err.Error())
	}
	if gp.KernelH != pp.KernelH || gp.StrideH != pp.StrideH {
		return cover(c.Name, fmt.Sprintf("halves disagree on kernel/stride: %dx%d vs %dx%d",
			gp.KernelH, gp.StrideH, pp.KernelH, pp.StrideH))
	}
	gSlice := g.Producer(gpu.Inputs[0])
	pSlice := g.Producer(pim.Inputs[0])
	if gSlice == nil || gSlice.Op != graph.OpSlice || pSlice == nil || pSlice.Op != graph.OpSlice {
		return cover(c.Name, "MD-DP conv halves must read height Slices of the source")
	}
	if gSlice.Attrs.Int("axis", 1) != 1 || pSlice.Attrs.Int("axis", 1) != 1 {
		return cover(c.Name, "MD-DP conv slices must split the height axis")
	}
	src := gSlice.Inputs[0]
	if pSlice.Inputs[0] != src {
		return cover(c.Name, fmt.Sprintf("halves slice different sources %q and %q", src, pSlice.Inputs[0]))
	}
	srcTI := g.Tensors[src]
	gOut := g.Tensors[gpu.Outputs[0]]
	pOut := g.Tensors[pim.Outputs[0]]
	if srcTI == nil || len(srcTI.Shape) != 4 || gOut == nil || len(gOut.Shape) != 4 ||
		pOut == nil || len(pOut.Shape) != 4 {
		return cover(c.Name, "MD-DP conv tensors must be NHWC with known shapes")
	}
	srcH := srcTI.Shape[1]
	want := (srcH+gp.PadT+pp.PadB-gp.KernelH)/gp.StrideH + 1
	got := gOut.Shape[1] + pOut.Shape[1]
	if want != got {
		return cover(c.Name, fmt.Sprintf(
			"halves produce %d output rows, original conv over %d source rows produces %d", got, srcH, want))
	}
	return nil
}

// checkPipeline validates pipeline annotations (GR-PIPE-HINT), stage
// completeness (GR-PIPE-PARTS), and chunk dataflow order: chunk (s, p)
// may only consume chunks (s' < s, p' <= p) of the same group — the
// property that lets the runtime overlap chunk B of stage i with chunk A
// of stage i+1 (GR-PIPE-ORDER). Chunk provenance is propagated through
// the unannotated Slice/Concat glue nodes between stages.
func checkPipeline(g *graph.Graph) []Diagnostic {
	var diags []Diagnostic

	type chunk struct{ group, stage, part int }
	groups := map[int][]*graph.Node{}
	groupParts := map[int]int{}
	for _, n := range g.Nodes {
		if n.Exec.Mode != graph.ModePipeline {
			continue
		}
		h := n.Exec.Pipeline
		if h.Parts < 2 || h.Part < 0 || h.Part >= h.Parts || h.Stage < 0 {
			diags = append(diags, graphDiag(RuleGraphPipeHint, n.Name, "",
				fmt.Sprintf("invalid pipeline hint stage=%d part=%d parts=%d", h.Stage, h.Part, h.Parts)))
			continue
		}
		if prev, ok := groupParts[h.GroupID]; ok && prev != h.Parts {
			diags = append(diags, graphDiag(RuleGraphPipeHint, n.Name, "",
				fmt.Sprintf("group %d mixes chunk counts %d and %d", h.GroupID, prev, h.Parts)))
			continue
		}
		groupParts[h.GroupID] = h.Parts
		groups[h.GroupID] = append(groups[h.GroupID], n)
	}

	// Stage completeness per group.
	for gid, nodes := range groups {
		parts := groupParts[gid]
		stageSeen := map[int]map[int]bool{}
		for _, n := range nodes {
			h := n.Exec.Pipeline
			if stageSeen[h.Stage] == nil {
				stageSeen[h.Stage] = map[int]bool{}
			}
			stageSeen[h.Stage][h.Part] = true
		}
		for stage, seen := range stageSeen {
			for p := 0; p < parts; p++ {
				if !seen[p] {
					diags = append(diags, graphDiag(RuleGraphPipeParts, "", "",
						fmt.Sprintf("group %d stage %d is missing chunk %d of %d", gid, stage, p, parts)))
				}
			}
		}
	}
	if len(groups) == 0 {
		return diags
	}

	// Chunk-order dataflow: propagate per-tensor origin chunks in topo
	// order. Pipeline nodes stamp their own chunk; glue nodes forward the
	// union of their inputs' origins.
	order, err := g.TopoSort()
	if err != nil {
		return diags // already reported as GR-CYCLE
	}
	origins := map[string]map[chunk]bool{}
	for _, n := range order {
		inOrigins := map[chunk]bool{}
		for _, in := range n.Inputs {
			for ch := range origins[in] {
				inOrigins[ch] = true
			}
		}
		if n.Exec.Mode == graph.ModePipeline {
			h := n.Exec.Pipeline
			if h.Parts >= 2 && h.Part >= 0 && h.Part < h.Parts && h.Stage >= 0 {
				for ch := range inOrigins {
					if ch.group != h.GroupID {
						continue
					}
					if ch.stage >= h.Stage || ch.part > h.Part {
						diags = append(diags, graphDiag(RuleGraphPipeOrder, n.Name, "", fmt.Sprintf(
							"chunk (stage %d, part %d) consumes chunk (stage %d, part %d) of group %d",
							h.Stage, h.Part, ch.stage, ch.part, ch.group)))
					}
				}
				// Downstream consumers see this node as its own chunk.
				inOrigins = map[chunk]bool{{h.GroupID, h.Stage, h.Part}: true}
			}
		}
		for _, out := range n.Outputs {
			origins[out] = inOrigins
		}
	}
	return diags
}

// checkLiveness reports nodes DCE should have removed: no output is a
// graph output or consumed by another node.
func checkLiveness(g *graph.Graph) []Diagnostic {
	outputs := map[string]bool{}
	for _, o := range g.Outputs {
		outputs[o] = true
	}
	consumed := map[string]bool{}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			consumed[in] = true
		}
	}
	var diags []Diagnostic
	for _, n := range g.Nodes {
		live := false
		for _, out := range n.Outputs {
			if outputs[out] || consumed[out] {
				live = true
				break
			}
		}
		if !live {
			diags = append(diags, graphDiag(RuleGraphDead, n.Name, "",
				"no output is a graph output or consumed by another node"))
		}
	}
	return diags
}
