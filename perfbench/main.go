// Command perfbench is the repository benchmark: it drives the compiler
// (cold model loads), the deterministic replay engines (single server
// and fleet), and the live HTTP serving path from one process, checks
// every output, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload compile-cold --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// Every run executes all four phases (compile, Poisson replay, fleet
// replay, HTTP), so every metric exists on every workload. The named
// workload's phase gets most of the --seconds budget; each other phase
// runs a fixed-size probe. The phases interleave in four cycles. With --trace 0 the result carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics
// derived from spans recorded around each public call, and the spans
// are written to .bench_build/spans. See README.md for the metric
// definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// workload names one benchmark workload and the phase it emphasizes.
type workload struct {
	name  string
	phase string
}

var workloads = []workload{
	{"compile-cold", phaseCompile},
	{"replay-poisson", phasePoisson},
	{"fleet-bursty", phaseFleet},
	{"serve-http", phaseHTTP},
}

// primaryShare is the part of --seconds the named workload's phase gets;
// the other three phases run fixed-size probes. Each phase runs in
// `cycles` slices.
const (
	primaryShare = 0.55
	cycles       = 4
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errCheck marks a failed output check: the run still reports its
// result (with correct=false) and then exits nonzero.
var errCheck = errors.New("output check failed")

func main() {
	var (
		name    = flag.String("workload", "", "compile-cold, replay-poisson, fleet-bursty, serve-http, or all")
		seed    = flag.Int64("seed", 1, "workload seed: every generated input derives from it")
		seconds = flag.Float64("seconds", 20, "measurement budget of one run")
		trace   = flag.Int("trace", 0, "1: record spans and report per-layer metrics instead of end-to-end ones")
	)
	flag.Parse()
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace == 1))
	}
	w, ok := lookup(*name)
	if !ok {
		fail(fmt.Errorf("unknown --workload %q", *name))
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1)
	if res == nil {
		fail(err)
	}
	emit(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func emit(res *result) {
	data, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(data))
}

// runAll runs the four workloads in one process and prints each result
// under its workload name, then one combined line.
func runAll(seed int64, seconds float64, traced bool) int {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		res, err := runWorkload(w, seed, seconds, traced)
		if res == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
		printTable(w.name, res)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	emit(all)
	return code
}

func printTable(name string, res *result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# == %s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Printf("#   %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// runWorkload sets up, runs every phase, checks the outputs, and builds
// the result. A nil result means the run could not produce one; a
// non-nil result with an error means an output check failed.
func runWorkload(w workload, seed int64, seconds float64, traced bool) (*result, error) {
	b := newBench(seed, traced)
	host := hostStamp()
	fmt.Printf("# host: %s\n", host)
	fmt.Printf("# workload %s seed %d seconds %g trace %v\n", w.name, seed, seconds, traced)

	env, err := b.setup()
	if err != nil {
		return nil, err
	}
	defer env.close()

	// The phases interleave in `cycles` rounds, so a slow stretch of
	// the host lands on every phase instead of on whichever ran then.
	primary := time.Duration(seconds*primaryShare*float64(time.Second)) / cycles
	order := []string{w.phase}
	for _, p := range phaseOrder {
		if p != w.phase {
			order = append(order, p)
		}
	}
	took := map[string]time.Duration{}
	for c := 0; c < cycles; c++ {
		for _, p := range order {
			budget := time.Duration(0)
			if p == w.phase {
				budget = primary
			}
			start := time.Now()
			if err := b.runPhase(p, env, c, budget, p == w.phase); err != nil {
				return nil, fmt.Errorf("%s phase: %w", p, err)
			}
			took[p] += time.Since(start)
		}
	}
	for _, p := range order {
		b.infof("%s phase took %.2f s", p, took[p].Seconds())
	}
	b.checkReport()
	b.finish()

	res := &result{Correct: len(b.failures) == 0, Attempted: b.attempted, Failed: b.failed}
	if traced {
		res.Metrics = b.layer
		spansPath := fmt.Sprintf(".bench_build/spans/%s-seed%d.json", w.name, seed)
		if err := b.tr.write(spansPath, map[string]any{
			"host": host, "workload": w.name, "seed": seed, "seconds": seconds,
		}); err != nil {
			return nil, err
		}
		fmt.Printf("# spans written to %s\n", spansPath)
	} else {
		res.Metrics = b.e2e
	}
	for _, line := range b.info {
		fmt.Println("# " + line)
	}
	if len(b.failures) > 0 {
		return res, fmt.Errorf("%w:\n  %s", errCheck, strings.Join(b.failures, "\n  "))
	}
	return res, nil
}
