package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cwcs/internal/obs"
)

// traced is the --trace 1 run. It replays the workload's episode
// untraced, then the same inputs with every wrapper timing its layer,
// the loop's span tracer and the solver telemetry attached; the ratio
// of the two episodes' wall times is the tracing overhead.
// The fixed-input layer probes follow, then the span dump and the
// self-time table are written.
func traced(name string, run runner, seed int64, dir string, set settings) result {
	base := newEnv(false, set)
	rb := run(base, newSeedStream(seed))
	e := newEnv(true, set)
	t0 := time.Now()
	r := run(e, newSeedStream(seed))
	wall := time.Since(t0)

	m := layerMetrics(e, r)
	m["obs.overhead_ratio"] = metric{r.wall / rb.wall, "ratio"}
	m["run_wall_s"] = metric{rb.wall, "s"}
	for k, v := range switchProbe(e, seed) {
		m[k] = v
	}
	for k, v := range scaleProbe(set.cellLimit) {
		m[k] = v
	}

	fmt.Printf("per-layer self time, traced %s run (seed %d):\n", name, seed)
	e.p.table(os.Stdout, wall)
	if err := writeDump(e, filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: span dump:", err)
		e.o.miss("span dump: %v", err)
	}
	e.o.absorb(base.o)
	return verdict(e, m)
}

// writeDump writes the wrapper spans, then the program's own obs spans.
func writeDump(e *env, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = e.p.writeSpans(f, func(enc *json.Encoder) error {
		for i := range e.spans {
			rec := struct {
				Src string `json:"src"`
				obs.SpanRecord
			}{"obs", e.spans[i]}
			if err := enc.Encode(&rec); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	fmt.Printf("span dump: %s (%d wrapper + %d obs spans)\n", path, len(e.p.spans), len(e.spans))
	return err
}

// layerMetrics turns a traced run into the per-layer metrics. Solve,
// carve and merge time come from the loop's own obs spans, nested in
// the benchmark's loop-callback frames; they are credited to layers of
// their own so the loop's self time is what remains.
func layerMetrics(e *env, r *report) map[string]metric {
	p := e.p
	budget := e.set.churn.Budget.Seconds()
	var solveMS []float64
	var carve, merge float64
	hits := 0
	actions := 0
	for _, s := range e.spans {
		d := time.Duration(s.WallSeconds * 1e9)
		switch s.Kind {
		case obs.KindSolve.String():
			solveMS = append(solveMS, s.WallSeconds*1e3)
			if s.WallSeconds >= 0.95*budget {
				hits++
			}
			p.credit("core.solve", "core.loop", d)
		case obs.KindCarve.String():
			carve += s.WallSeconds
			p.credit("core.carve", "core.loop", d)
		case obs.KindMerge.String():
			merge += s.WallSeconds
			p.credit("core.merge", "core.loop", d)
		case obs.KindAction.String():
			actions++
		}
	}
	snap := e.solver.Snapshot()
	solveS := sum(solveMS) / 1e3
	adv := float64(e.c.advances)
	m := map[string]metric{
		"sim.advances":       {adv, "count"},
		"sim.self_s":         {p.selfSeconds("sim"), "s"},
		"sim.us_per_advance": {ratio(p.selfSeconds("sim")*1e6, adv), "us"},

		"vjob.sweep_ms":      {e.c.sweepMS, "ms"},
		"vjob.clone_ms":      {e.c.sweepClone, "ms"},
		"vjob.violations_ms": {e.c.sweepViolMS, "ms"},

		"monitor.sample_s":        {p.selfSeconds("monitor"), "s"},
		"monitor.us_per_sample":   {ratio(p.selfSeconds("monitor")*1e6, adv), "us"},
		"monitor.recovery_p50_vs": {quantile(r.reactVS, 0.5), "vs"},
		"monitor.violation_s":     {mean(r.viol), "s"},

		"cp.search_nodes": {float64(snap.NodesExplored), "count"},
		"cp.backtracks":   {float64(snap.Backtracks), "count"},
		"cp.nodes_per_s":  {ratio(float64(snap.NodesExplored), solveS), "1/s"},

		"core.solve_s":        {solveS, "s"},
		"core.solve_p50_ms":   {quantile(solveMS, 0.5), "ms"},
		"core.solve_p95_ms":   {quantile(solveMS, 0.95), "ms"},
		"core.solves":         {float64(len(solveMS)), "count"},
		"core.budget_hits":    {float64(hits), "count"},
		"core.proved_ratio":   {ratio(float64(len(solveMS)-hits), float64(len(solveMS))), "ratio"},
		"core.warm_hit_ratio": {ratio(float64(snap.WarmStartHits), float64(snap.WarmStartHits+snap.WarmStartMisses)), "ratio"},

		"core.wakes":           {float64(len(e.c.wakeMS)), "count"},
		"core.wake_s":          {sum(e.c.wakeMS) / 1e3, "s"},
		"core.wake_p50_ms":     {quantile(e.c.wakeMS, 0.5), "ms"},
		"core.loop_self_s":     {p.selfSeconds("core.loop"), "s"},
		"core.sub_solves":      {float64(r.stats.SubSolves), "count"},
		"core.events":          {float64(r.stats.Events), "count"},
		"core.coalesced":       {float64(r.stats.Coalesced), "count"},
		"core.repairs":         {float64(r.stats.Repairs), "count"},
		"core.failed_repairs":  {float64(r.stats.FailedRepairs), "count"},
		"core.carve_s":         {carve, "s"},
		"core.merge_s":         {merge, "s"},
		"core.switches":        {float64(len(r.costs)), "count"},
		"core.switch_cost_p50": {quantile(r.costs, 0.5), "cost"},
		"sched.decide_s":       {p.inclSeconds("sched.decide"), "s"},

		"plan.validate_s": {p.inclSeconds("plan.validate"), "s"},
		"plan.splice_s":   {p.inclSeconds("plan.splice"), "s"},
		"plan.actions":    {float64(e.c.actions), "count"},
		"plan.pools":      {float64(e.c.pools), "count"},

		"drivers.actions":           {float64(actions), "count"},
		"drivers.injected_failures": {float64(e.c.failures), "count"},
		"drivers.execute_s":         {p.inclSeconds("drivers.execute"), "s"},
		"drivers.observe_s":         {p.inclSeconds("drivers.observe"), "s"},

		"api.requests":         {float64(len(r.readMS) + len(r.writeMS)), "count"},
		"api.exec_hold_s":      {sum(e.c.holdMS) / 1e3, "s"},
		"api.exec_hold_p99_ms": {quantile(e.c.holdMS, 0.99), "ms"},
		"api.read_p50_ms":      {quantile(r.readMS, 0.5), "ms"},
		"api.read_p99_ms":      {quantile(r.readMS, 0.99), "ms"},
		"api.write_p50_ms":     {quantile(r.writeMS, 0.5), "ms"},
		"api.write_p90_ms":     {quantile(r.writeMS, 0.9), "ms"},
		"api.drain_p50_vs":     {quantile(r.drainVS, 0.5), "vs"},
		"api.drain_p80_vs":     {quantile(r.drainVS, 0.8), "vs"},
		"api.bytes_per_read":   {ratio(float64(r.readBytes), float64(len(r.readMS))), "B"},

		"obs.spans":      {float64(len(e.spans)), "count"},
		"oracle.audit_s": {e.o.spent.Seconds(), "s"},
	}
	for _, route := range []string{"nodes", "node", "metrics", "config", "drain", "submit"} {
		m["api."+route+"_p50_ms"] = metric{quantile(e.c.routeMS[route], 0.5), "ms"}
	}
	return m
}

// ratio is a/b, 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
