package load

import (
	"errors"

	"pimflow/internal/serve"
)

// AutoStreamRequests is the request count at which the replay drivers
// switch from exact per-request latency collection to the bounded-memory
// quantile sketch on their own: multi-million-request fleet traces would
// otherwise hold one latRec per served request (and one int64 per class)
// for the whole replay. Below the threshold the exact path keeps the
// per-request report sections (Stages, Attributed); Scenario.StreamStats
// forces streaming at any size.
const AutoStreamRequests = 200_000

// Collector accumulates served-response statistics for one replay and
// folds them into a Report. It has two modes with one interface: the
// exact mode keeps every latency record (percentiles are exact and the
// per-request sections are available), the streaming mode keeps a
// fixed-size deterministic sketch (see QuantileSketch). Every replay
// driver — Replay and the fleet replay, which share Machine, and
// ReplayLive — records its outcomes through one of these, so the
// outcome counters and the auto-switch policy live in exactly one place.
//
// A Collector is not safe for concurrent use; concurrent drivers
// (ReplayLive) serialize Record calls under their own lock.
type Collector struct {
	stream   *streamStats
	recs     []latRec
	classLat map[string][]int64
	batchSum int64
	makespan int64
}

// NewCollector returns the collector for a replay of `requests` trace
// entries: streaming when the scenario demands it (StreamStats) or when
// the trace is at least AutoStreamRequests long, exact otherwise.
func NewCollector(sc Scenario, requests int) *Collector {
	if sc.StreamStats || requests >= AutoStreamRequests {
		return &Collector{stream: newStreamStats(sc.SketchK)}
	}
	return &Collector{recs: make([]latRec, 0, requests), classLat: map[string][]int64{}}
}

// Streaming reports whether the collector holds a bounded-memory sketch
// instead of exact per-request records.
func (c *Collector) Streaming() bool { return c.stream != nil }

// Samples returns how many latency values the collector currently holds
// in memory — bounded in streaming mode, one per served request in exact
// mode.
func (c *Collector) Samples() int {
	if c.stream != nil {
		n := c.stream.overall.Samples()
		for _, s := range c.stream.classes {
			n += s.Samples()
		}
		return n
	}
	return len(c.recs)
}

// Record folds one request outcome into the report. A served response
// (nil err) counts as served, in its SLO class, and in the statistics;
// an error counts as shed, rejected, violated, or an error.
func (c *Collector) Record(rep *Report, resp *serve.InferResponse, err error) {
	if err != nil {
		switch {
		case errors.Is(err, serve.ErrShed):
			rep.Shed++
		case errors.Is(err, serve.ErrQueueFull):
			rep.Rejected++
		case errors.Is(err, serve.ErrDeadlineViolation):
			rep.Violated++
		default:
			rep.Errors++
		}
		return
	}
	rep.Served++
	cs := rep.Classes[resp.SLOClass]
	cs.Served++
	if resp.SLOMiss {
		cs.SLOMiss++
		rep.SLOMiss++
	}
	rep.Classes[resp.SLOClass] = cs
	c.batchSum += int64(resp.BatchSize)
	if resp.EndCycle > c.makespan {
		c.makespan = resp.EndCycle
	}
	if c.stream != nil {
		c.stream.add(resp.SLOClass, resp.LatencyCycles)
		return
	}
	c.recs = append(c.recs, recOf(resp))
	c.classLat[resp.SLOClass] = append(c.classLat[resp.SLOClass], resp.LatencyCycles)
}

// Finish folds the collected statistics into the report: percentiles,
// mean, makespan, per-class slices, and — in exact mode only — the
// per-stage distributions and attributed percentile splits.
func (c *Collector) Finish(rep *Report) {
	if c.stream != nil {
		c.stream.finish(rep, c.batchSum, c.makespan)
		return
	}
	finishReport(rep, c.recs, c.classLat, c.batchSum, c.makespan)
}
