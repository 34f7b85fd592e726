// Command perfbench is the repository's benchmark. It wires the
// layers (vjob, sim, core, drivers, monitor, sched, plan, api,
// workload, obs) from their public APIs, runs one episode of a named
// workload on inputs drawn from a seed, checks every output with an
// oracle, and prints one JSON object as the last line of stdout.
//
//	perfbench --workload churn --seed 1 --seconds 60 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// wraps every layer call in timing frames, attaches the loop's span
// tracer and solver telemetry, and reports per-layer metrics, a
// self-time table and a JSONL span dump instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// settings are the workload parameters: main runs the published ones,
// the tests a miniature.
type settings struct {
	churn churnParams
	sw    switchParams
	// cellLimit bounds one scale-probe cell.
	cellLimit time.Duration
}

func defaultSettings() settings {
	return settings{churn: defaultChurn(), sw: defaultSwitch(), cellLimit: 5 * time.Second}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner runs one episode of a workload on the inputs of a seed
// stream.
type runner func(*env, *seedStream) *report

var workloads = map[string]runner{
	"churn": runChurn,
	"ops":   runOps,
}

func main() {
	name := flag.String("workload", "", "workload to run: churn or ops")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	// A run measures one episode, a fixed amount of work; --seconds is
	// the length the caller budgets for it and is only checked.
	seconds := flag.Int("seconds", 60, "wall seconds budgeted for the run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "where the traced run writes its span dump")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	var res result
	if *trace == 1 {
		res = traced(*name, run, *seed, *traceDir, defaultSettings())
	} else {
		e := newEnv(false, defaultSettings())
		res = endToEnd(run(e, newSeedStream(*seed)), e)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// verdict fills the oracle's counts into a result.
func verdict(e *env, m map[string]metric) result {
	for _, s := range e.o.misses {
		fmt.Fprintln(os.Stderr, "oracle:", s)
	}
	return result{Correct: e.o.failed == 0, Attempted: e.o.attempted, Failed: e.o.failed, Metrics: m}
}

// endToEnd turns an untraced run's report into the end-to-end metrics.
func endToEnd(r *report, e *env) result {
	m := map[string]metric{
		"setup_s":       {quantile(r.setup, 0.5), "s"},
		"run_cpu_s":     {r.cpu, "s"},
		"turnaround_vs": {mean(r.turnaround), "vs"},
	}
	fmt.Printf("samples: setup_s %d set-ups, run_cpu_s 1 episode, turnaround_vs %d vjobs\n",
		len(r.setup), len(r.turnaround))
	return verdict(e, m)
}
