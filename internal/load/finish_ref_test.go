package load

import (
	"math"
	"sort"

	"pimflow/internal/num"
)

// The report fold as it was before rank selection, kept verbatim as the
// reference the production finishReport must match field for field: a
// reflection-based stable sort of every record by (latency, request ID),
// map-appended stage columns, and attribution by indexing the sorted
// records.

func attributedAtRef(sorted []latRec, q float64) AttributedRequest {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	r := sorted[i]
	return AttributedRequest{RequestID: r.id, Model: r.model, LatencyCycles: r.lat, Stages: r.stages}
}

func stageStatsRef(recs []latRec) map[string]StageStats {
	cols := map[string][]int64{}
	for _, r := range recs {
		cols["queue"] = append(cols["queue"], r.stages.Queue)
		cols["batch_window"] = append(cols["batch_window"], r.stages.BatchWait)
		cols["lease_wait"] = append(cols["lease_wait"], r.stages.LeaseWait)
		cols["execute"] = append(cols["execute"], r.stages.Execute)
	}
	out := make(map[string]StageStats, len(cols))
	for _, name := range num.SortedKeys(cols) {
		vals := cols[name]
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		var sum int64
		for _, v := range vals {
			sum += v
		}
		out[name] = StageStats{
			P50:  percentile(vals, 0.50),
			P99:  percentile(vals, 0.99),
			P999: percentile(vals, 0.999),
			Max:  vals[len(vals)-1],
			Mean: float64(sum) / float64(len(vals)),
		}
	}
	return out
}

func finishReportRef(rep *Report, recs []latRec, classLat map[string][]int64, batchSum, makespan int64) {
	// Ties break on request ID (deterministic in single-threaded replay),
	// then stably on append order.
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].lat != recs[j].lat {
			return recs[i].lat < recs[j].lat
		}
		return recs[i].id < recs[j].id
	})
	lat := make([]int64, len(recs))
	for i, r := range recs {
		lat[i] = r.lat
	}
	rep.P50 = percentile(lat, 0.50)
	rep.P99 = percentile(lat, 0.99)
	rep.P999 = percentile(lat, 0.999)
	if n := len(recs); n > 0 {
		rep.MaxLatency = lat[n-1]
		var sum int64
		for _, l := range lat {
			sum += l
		}
		rep.MeanLatency = float64(sum) / float64(n)
		rep.MeanBatch = float64(batchSum) / float64(n)
		rep.Stages = stageStatsRef(recs)
		rep.Attributed = &Attributed{
			P50:  attributedAtRef(recs, 0.50),
			P99:  attributedAtRef(recs, 0.99),
			P999: attributedAtRef(recs, 0.999),
		}
	}
	rep.MakespanCycles = makespan
	for _, cls := range num.SortedKeys(classLat) {
		ls := classLat[cls]
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		cs := rep.Classes[cls]
		cs.P50 = percentile(ls, 0.50)
		cs.P99 = percentile(ls, 0.99)
		cs.P999 = percentile(ls, 0.999)
		cs.MaxCycle = ls[len(ls)-1]
		rep.Classes[cls] = cs
	}
	if rep.WallSeconds > 0 {
		rep.ReqPerSec = float64(rep.Served) / rep.WallSeconds
	}
}
