package codegen

import (
	"testing"
	"testing/quick"

	"pimflow/internal/pim"
)

func TestWorkloadValidate(t *testing.T) {
	if err := (Workload{M: 1, K: 1, N: 1, Segments: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []Workload{
		{M: 0, K: 1, N: 1, Segments: 1},
		{M: 1, K: 0, N: 1, Segments: 1},
		{M: 1, K: 1, N: 0, Segments: 1},
		{M: 1, K: 1, N: 1, Segments: 0},
	} {
		if err := w.Validate(); err == nil {
			t.Errorf("workload %+v accepted", w)
		}
	}
}

func TestGranularityStrings(t *testing.T) {
	if GranGAct.String() != "G_ACT" || GranReadRes.String() != "READRES" || GranComp.String() != "COMP" {
		t.Fatal("granularity strings")
	}
}

// MAC-slot conservation: the generated COMP stream must cover at least
// M*K*N MAC operations (slots may exceed due to partial lane/colIO
// padding, but never by more than the padding bound).
func TestPropertyMACConservation(t *testing.T) {
	cfg := pim.DefaultConfig()
	f := func(mRaw, kRaw, nRaw uint16, granRaw uint8) bool {
		w := Workload{
			M:        int(mRaw%50) + 1,
			K:        int(kRaw%3000) + 1,
			N:        int(nRaw%200) + 1,
			Segments: 1,
		}
		opts := Opts{Granularity: Granularity(granRaw % 3), StridedGWrite: true}
		tr, err := Generate(w, cfg, opts)
		if err != nil {
			return false
		}
		var colIOs int64
		for _, ch := range tr.Channels {
			colIOs += pim.CountOf(ch).ColIOs
		}
		// Each column I/O per bank covers 16 K-elements for 16 lanes.
		slots := colIOs * 16 * 16
		need := int64(w.M) * int64(w.K) * int64(w.N)
		// Padding bound: K rounds to 16-element colIOs, N rounds to
		// 16-lane groups.
		kPad := int64((w.K + 15) / 16 * 16)
		nPad := int64((w.N + 15) / 16 * 16)
		maxSlots := int64(w.M) * kPad * nPad
		return slots >= need && slots <= maxSlots
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Finer scheduling granularity engages at least as many channels.
func TestGranularityChannelEngagement(t *testing.T) {
	cfg := pim.DefaultConfig()
	// Small matrix: one output group, many vectors.
	w := Workload{M: 64, K: 256, N: 16, Segments: 1}
	used := map[Granularity]int{}
	for _, g := range []Granularity{GranGAct, GranReadRes, GranComp} {
		tr, err := Generate(w, cfg, Opts{Granularity: g, StridedGWrite: true})
		if err != nil {
			t.Fatal(err)
		}
		used[g] = len(tr.Channels)
	}
	if used[GranGAct] != 1 {
		t.Errorf("G_ACT granularity used %d channels, want 1 (single output group)", used[GranGAct])
	}
	if used[GranReadRes] < used[GranGAct] || used[GranComp] < used[GranReadRes] {
		t.Errorf("channel engagement not monotone: %v", used)
	}
	if used[GranReadRes] != cfg.Channels {
		t.Errorf("READRES granularity used %d channels, want %d", used[GranReadRes], cfg.Channels)
	}
}

// Finer granularity should reduce makespan for small matrices (Fig 6).
func TestGranularityImprovesSmallMatrixTime(t *testing.T) {
	cfg := pim.DefaultConfig()
	w := Workload{M: 128, K: 512, N: 16, Segments: 1}
	var times []int64
	for _, g := range []Granularity{GranGAct, GranReadRes} {
		st, err := TimeWorkload(w, cfg, Opts{Granularity: g, StridedGWrite: true})
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, st.Cycles)
	}
	if times[1] >= times[0] {
		t.Fatalf("READRES granularity (%d cycles) not faster than G_ACT (%d)", times[1], times[0])
	}
	if times[0] < 8*times[1] {
		// With 16 channels vs 1, expect near-16x.
		t.Logf("note: speedup %0.1fx (expected near 16x)", float64(times[0])/float64(times[1]))
	}
}

// Multiple global buffers reduce G_ACT count ~4x for multi-vector loads.
func TestMultiBufferReducesActivations(t *testing.T) {
	w := Workload{M: 64, K: 1024, N: 256, Segments: 1}
	one := pim.NewtonConfig() // 1 buffer
	four := pim.DefaultConfig()
	trOne, err := Generate(w, one, DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	trFour, err := Generate(w, four, DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	count := func(tr *pim.Trace) int64 {
		var c pim.Counts
		for _, ch := range tr.Channels {
			c.Add(pim.CountOf(ch))
		}
		return c.GActs
	}
	gOne, gFour := count(trOne), count(trFour)
	if gFour*3 > gOne {
		t.Fatalf("4 buffers: %d G_ACTs vs 1 buffer: %d (want ~4x fewer)", gFour, gOne)
	}
}

// Strided GWRITE collapses per-segment commands into one.
func TestStridedGWriteReducesCommands(t *testing.T) {
	cfg := pim.DefaultConfig()
	w := Workload{M: 16, K: 192, N: 64, Segments: 3} // 3x3 conv patch rows
	noStride, err := Generate(w, cfg, Opts{Granularity: GranComp, StridedGWrite: false})
	if err != nil {
		t.Fatal(err)
	}
	stride, err := Generate(w, cfg, Opts{Granularity: GranComp, StridedGWrite: true})
	if err != nil {
		t.Fatal(err)
	}
	count := func(tr *pim.Trace) (cmds int64, bursts int64) {
		for _, ch := range tr.Channels {
			c := pim.CountOf(ch)
			cmds += c.GWrites
			bursts += c.GWBursts
		}
		return
	}
	cN, bN := count(noStride)
	cS, bS := count(stride)
	if cS >= cN {
		t.Fatalf("strided GWRITE commands %d not fewer than %d", cS, cN)
	}
	if bS > bN {
		t.Fatalf("strided GWRITE bursts %d exceed segmented %d", bS, bN)
	}
}

// The Fig 8 validation workload: a batch-1 4096x4096 FC layer should take
// on the order of 10k cycles on the default 16-channel PIM config (the
// weight matrix is 33.5 MB; PIM internal bandwidth is 4 KB/cycle).
func TestFCLayerMagnitude(t *testing.T) {
	w := Workload{M: 1, K: 4096, N: 4096, Segments: 1}
	st, err := TimeWorkload(w, pim.DefaultConfig(), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles < 5000 || st.Cycles > 60000 {
		t.Fatalf("FC 4096x4096 took %d cycles, want ~10-30k", st.Cycles)
	}
	if st.Counts.MACs < 4096*4096 {
		t.Fatalf("MAC slots %d below workload", st.Counts.MACs)
	}
}

// Property: PIM time is monotone (within discretization slack) in each of
// M, K, N.
func TestPropertyTimeMonotoneInM(t *testing.T) {
	cfg := pim.DefaultConfig()
	opts := DefaultOpts()
	f := func(mRaw uint8) bool {
		m := int(mRaw%60) + 1
		t1, err1 := TimeWorkload(Workload{M: m, K: 512, N: 128, Segments: 1}, cfg, opts)
		t2, err2 := TimeWorkload(Workload{M: m * 2, K: 512, N: 128, Segments: 1}, cfg, opts)
		return err1 == nil && err2 == nil && t2.Cycles >= t1.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	cfg := pim.DefaultConfig()
	if _, err := Generate(Workload{}, cfg, DefaultOpts()); err == nil {
		t.Error("empty workload accepted")
	}
	bad := cfg
	bad.Channels = -1
	if _, err := Generate(Workload{M: 1, K: 1, N: 1, Segments: 1}, bad, DefaultOpts()); err == nil {
		t.Error("bad config accepted")
	}
}

// A K larger than the global buffer must be tiled, not rejected.
func TestLargeKTiles(t *testing.T) {
	cfg := pim.DefaultConfig() // buffer holds 2048 fp16
	w := Workload{M: 2, K: 5000, N: 32, Segments: 1}
	st, err := TimeWorkload(w, cfg, DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles == 0 {
		t.Fatal("zero cycles for large-K workload")
	}
	// All K elements must be covered: colIOs*16 >= K per (vector, group).
	if st.Counts.ColIOs*16 < int64(w.K)*int64(w.M)*int64((w.N+15)/16) {
		t.Fatalf("K coverage too small: %d colIOs", st.Counts.ColIOs)
	}
}
