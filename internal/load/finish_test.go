package load

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pimflow/internal/serve"
)

// finishCase is one randomized Collector state: records in append
// order plus per-class latencies.
type finishCase struct {
	name     string
	recs     []latRec
	classLat map[string][]int64
}

// randomFinishCase draws n records whose latencies come from `distinct`
// values (few values: heavy ties), with IDs minted from firstID in a
// shuffled completion order; firstID 0 leaves IDs empty (request log
// off, so ties fall back to append order), and emptyFrac blanks a share
// of them.
func randomFinishCase(rng *rand.Rand, name string, n, distinct, firstID int, emptyFrac float64) finishCase {
	c := finishCase{name: name, classLat: map[string][]int64{}}
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		lat := int64(1000 + 250*rng.Intn(distinct))
		bw := rng.Int63n(lat/2 + 1)
		lw := rng.Int63n(lat - bw + 1)
		r := latRec{
			lat:    lat,
			model:  fmt.Sprintf("m%d", rng.Intn(3)),
			stages: serve.StageCycles{BatchWait: bw, LeaseWait: lw, Execute: lat - bw - lw},
		}
		if firstID > 0 && rng.Float64() >= emptyFrac {
			r.id = fmt.Sprintf("r%06d", firstID+perm[i])
		}
		c.recs = append(c.recs, r)
		cls := []string{"gold", "bronze", "best-effort"}[rng.Intn(3)]
		c.classLat[cls] = append(c.classLat[cls], lat)
	}
	return c
}

// TestFinishReportMatchesReference checks rank selection against the
// full (latency, ID) stable sort it replaced: identical Reports, field
// for field, on heavy ties, empty IDs, IDs whose string order differs
// from their numeric order (r999999 < r1000000 numerically only), and
// 0, 1 and 2 records.
func TestFinishReportMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cases []finishCase
	for _, n := range []int{0, 1, 2} {
		cases = append(cases, randomFinishCase(rng, fmt.Sprintf("n=%d", n), n, 2, 1, 0))
		cases = append(cases, randomFinishCase(rng, fmt.Sprintf("n=%d/no-ids", n), n, 1, 0, 0))
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(3000)
		cases = append(cases,
			randomFinishCase(rng, fmt.Sprintf("ties/%d", trial), n, 1+rng.Intn(4), 1+rng.Intn(5000), 0),
			randomFinishCase(rng, fmt.Sprintf("no-ids/%d", trial), n, 1+rng.Intn(6), 0, 0),
			randomFinishCase(rng, fmt.Sprintf("some-empty/%d", trial), n, 1+rng.Intn(3), 1, 0.3),
			randomFinishCase(rng, fmt.Sprintf("r999999/%d", trial), n, 1+rng.Intn(3), 1_000_000-n/2, 0),
			randomFinishCase(rng, fmt.Sprintf("spread/%d", trial), n, 1000, 1, 0),
		)
	}
	for _, c := range cases {
		got, want := finishBoth(c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: finishReport\n%+v\nwant\n%+v", c.name, got, want)
		}
	}
}

// finishBoth folds deep copies of one case through both the production
// and the reference finishReport.
func finishBoth(c finishCase) (got, want *Report) {
	run := func(fold func(*Report, []latRec, map[string][]int64, int64, int64)) *Report {
		rep := &Report{Served: len(c.recs), WallSeconds: 0.5, Classes: map[string]ClassStats{}}
		cl := map[string][]int64{}
		for k, v := range c.classLat {
			cl[k] = append([]int64(nil), v...)
			rep.Classes[k] = ClassStats{Served: len(v)}
		}
		fold(rep, append([]latRec(nil), c.recs...), cl, int64(3*len(c.recs)), 99)
		return rep
	}
	return run(finishReport), run(finishReportRef)
}

// BenchmarkCollectorFinish folds 100k exact records (the size of the
// benchmark's Poisson replay) into a report.
func BenchmarkCollectorFinish(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := randomFinishCase(rng, "bench", 100_000, 5000, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		col := &Collector{recs: append([]latRec(nil), c.recs...), classLat: map[string][]int64{}}
		for k, v := range c.classLat {
			col.classLat[k] = append([]int64(nil), v...)
		}
		rep := &Report{Served: len(c.recs), Classes: map[string]ClassStats{}}
		b.StartTimer()
		col.Finish(rep)
	}
}
