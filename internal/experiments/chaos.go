package experiments

import (
	"bytes"
	"embed"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"cwcs/internal/core"
	"cwcs/internal/sim"
	"cwcs/internal/trace"
	"cwcs/internal/vjob"
)

// The chaos study replays the churn scenario under one adversarial
// condition per cell — correlated rack failures, flapping nodes,
// windowed monitoring-event loss, an action-failure storm — plus a
// trace-replay cell driving the loop from a recorded workload, and
// reports recovery-time distributions (p50/p95/max of violation
// episodes) and structural-breach counts per cell. The structural audit is always on: chaos that corrupts the
// configuration must fail the study, not just raise exposure.
//
// Every cell draws its chaos randomness (the burst plan, the flap plan
// or the event-loss filter) from a dedicated stream at Seed+3, so the
// runner's Seed/Seed+1/Seed+2 streams of the workload generator,
// arrivals and action failures stay byte-identical to the churn and
// repair-storm studies.

// ChaosScenarios lists the study's cells in run order.
func ChaosScenarios() []string {
	return []string{ScenarioBaseline, ScenarioBursts, ScenarioFlapping, ScenarioLoss, ScenarioStorm, ScenarioReplay}
}

// The scenario cell names.
const (
	// ScenarioBaseline is the untouched churn scenario: the control
	// cell the chaos cells are read against.
	ScenarioBaseline = "baseline"
	// ScenarioBursts injects correlated rack failures: every node of a
	// randomly drawn rack (a fence scope — the correlation domain of a
	// shared switch or PDU) receives an urgent drain order and a
	// NodeDown event at once, and returns Outage seconds later.
	ScenarioBursts = "rack-bursts"
	// ScenarioFlapping drives a set of nodes through rapid down/up
	// cycles, stressing the threshold hysteresis and the loop's
	// partition-cache invalidation.
	ScenarioFlapping = "flapping"
	// ScenarioLoss silently drops a fraction of the monitoring events
	// inside a window — partition-style staleness the loop must
	// survive via the periodic reconciliation sweep re-offering what
	// the cluster still disagrees about.
	ScenarioLoss = "event-loss"
	// ScenarioStorm spikes the action-failure rate far beyond the 2%
	// baseline inside a window (sim.FailureStorm).
	ScenarioStorm = "action-storm"
	// ScenarioReplay feeds the loop from a committed trace file
	// instead of the synthetic generator (trace.StartReplay).
	ScenarioReplay = "trace-replay"
)

// ChaosOptions parameterizes the chaos study.
type ChaosOptions struct {
	// Churn is the underlying cluster/workload scenario (the chaos
	// cells perturb it; FailureRate stays the flat baseline).
	Churn ChurnOptions
	// Scenarios are the cells to run; empty means ChaosScenarios().
	Scenarios []string

	// Racks is how many fence-scoped racks the nodes split into
	// (contiguous index ranges); Bursts how many rack failures to
	// draw in [BurstFrom, BurstUntil), each lasting Outage seconds.
	Racks, Bursts         int
	BurstFrom, BurstUntil float64
	Outage                float64

	// Flappers is how many nodes flap (spread over the index space)
	// inside [FlapFrom, FlapUntil), with Exp(MeanDown)/Exp(MeanUp)
	// down/up intervals.
	Flappers            int
	FlapFrom, FlapUntil float64
	MeanDown, MeanUp    float64

	// Loss is the monitoring-event drop schedule of the event-loss
	// cell.
	Loss sim.EventLoss

	// StormRate/StormFrom/StormUntil are the action-storm cell's
	// failure spike.
	StormRate             float64
	StormFrom, StormUntil float64

	// ResyncInterval is the anti-entropy sweep period: every interval
	// the harness compares the desired state with the configuration
	// and re-offers events for anything stale — persistent capacity
	// violations, still-waiting VMs, finished-but-present vjobs. This
	// is what lets the loop survive event loss: a dropped event's
	// condition is re-detected and re-offered until one gets through.
	// 0 defaults to 60 s.
	ResyncInterval float64

	// Trace names the committed sample trace the replay cell decodes
	// (SampleTraces lists them).
	Trace string

	// CollectSpans retains every closed span of each cell in
	// ChaosResult.Spans (the -trace-out export).
	CollectSpans bool
}

// DefaultChaosOptions is the BENCH_chaos.json scenario: the 500-node
// churn cluster, each chaos window opening after the arrival wave.
func DefaultChaosOptions() ChaosOptions {
	churn := DefaultChurnOptions()
	churn.ArrivalStop = 600
	churn.Horizon = 3600
	return ChaosOptions{
		Churn: churn,
		Racks: 10, Bursts: 3, BurstFrom: 600, BurstUntil: 1800, Outage: 400,
		Flappers: 8, FlapFrom: 600, FlapUntil: 1800, MeanDown: 30, MeanUp: 120,
		Loss:      sim.EventLoss{Fraction: 0.5, From: 600, Until: 1500},
		StormRate: 0.30, StormFrom: 600, StormUntil: 1200,
		Trace: "web-tide",
	}
}

func (o ChaosOptions) scenarios() []string {
	if len(o.Scenarios) == 0 {
		return ChaosScenarios()
	}
	return o.Scenarios
}

func (o ChaosOptions) resyncInterval() float64 {
	if o.ResyncInterval <= 0 {
		return 60
	}
	return o.ResyncInterval
}

// ChaosResult is one scenario cell's measurements. The structural
// audit behind Breaches is always on (must be 0); RuleBreachSeconds
// integrates drain rules breached while a failed node still hosted
// VMs.
type ChaosResult struct {
	// Scenario is the cell name (ChaosScenarios).
	Scenario string
	// Dropped counts monitoring events the loss filter discarded.
	Dropped int
	Outcome
}

// RunChaos replays one scenario cell. Unknown scenario names panic:
// they are programmer errors, not measurements.
func RunChaos(cell string, opts ChaosOptions) ChaosResult {
	if !slices.Contains(ChaosScenarios(), cell) {
		panic(fmt.Sprintf("experiments: unknown chaos scenario %q", cell))
	}
	// Every cell audits structure and retains spans per the chaos
	// options; only the storm cell spikes the flat action-failure
	// rate, with the chaos options' window.
	co := opts.Churn
	co.WatchInvariants = true
	co.CollectSpans = opts.CollectSpans
	co.StormRate, co.StormFrom, co.StormUntil = 0, 0, 0
	if cell == ScenarioStorm {
		co.StormRate, co.StormFrom, co.StormUntil = opts.StormRate, opts.StormFrom, opts.StormUntil
	}
	s := scenario{opts: co, eventDriven: true}
	if cell == ScenarioReplay {
		recs, err := SampleTrace(opts.Trace)
		if err != nil {
			panic(err)
		}
		s.trace = recs
	}

	chaosRng := rand.New(rand.NewSource(co.Seed + 3))
	dropped := 0
	s.setup = func(e *episode) {
		c := e.c
		// A failed node cannot simply vanish — the sim refuses to drop
		// a loaded node, and so would a real inventory — so a failure
		// is an urgent evacuation (drain rule plus NodeDown), and
		// recovery is the Undrain + NodeUp pair.
		restore := func(n string) {
			if e.drains.Undrain(n) {
				e.notify(core.Event{Kind: core.NodeUp, At: c.Now(), Nodes: []string{n}})
			}
		}
		switch cell {
		case ScenarioLoss:
			// The drop filter draws one rng variate per offered event,
			// in this cell only.
			drop := opts.Loss.Dropper(chaosRng)
			next := e.feed
			e.feed = func(ev core.Event) {
				if drop(c.Now()) {
					dropped++
					return
				}
				next(ev)
			}
		case ScenarioBursts:
			bursts := sim.PlanBursts(chaosRng, rackNames(co.Nodes, opts.Racks), sim.BurstOptions{
				Count: opts.Bursts, From: opts.BurstFrom, Until: opts.BurstUntil, Outage: opts.Outage,
			})
			for _, b := range bursts {
				c.Schedule(b.At, func() {
					for _, n := range b.Nodes {
						e.drain(n)
					}
				})
				if b.RecoverAt > 0 {
					c.Schedule(b.RecoverAt, func() {
						for _, n := range b.Nodes {
							restore(n)
						}
					})
				}
			}
		case ScenarioFlapping:
			flaps := sim.PlanFlaps(chaosRng, sim.FlapOptions{
				Nodes: spreadNodes(co.Nodes, opts.Flappers),
				From:  opts.FlapFrom, Until: opts.FlapUntil,
				MeanDown: opts.MeanDown, MeanUp: opts.MeanUp,
			})
			for _, tr := range flaps {
				c.Schedule(tr.At, func() {
					if tr.Down {
						e.drain(tr.Node)
					} else {
						restore(tr.Node)
					}
				})
			}
		}

		// The anti-entropy sweep: desired state vs configuration,
		// offered through the same (possibly lossy) feed. It is the
		// loss cell's recovery mechanism and a no-op wake source
		// elsewhere (a clean cluster re-offers nothing).
		var resync func()
		resync = func() {
			for _, ev := range reconcile(c, e.cfg, e.queue()) {
				e.notify(ev)
			}
			c.Schedule(c.Now()+opts.resyncInterval(), resync)
		}
		c.Schedule(opts.resyncInterval(), resync)
		c.Schedule(co.Horizon, func() {}) // pin the clock for censoring
	}

	e := s.run()
	return ChaosResult{Scenario: cell, Dropped: dropped, Outcome: e.out}
}

// rackNames splits the node index space into racks contiguous groups
// — the fence scopes rack failures take down together.
func rackNames(nodes, racks int) [][]string {
	if racks < 1 {
		racks = 1
	}
	if racks > nodes {
		racks = nodes
	}
	out := make([][]string, racks)
	for i := 0; i < nodes; i++ {
		r := i * racks / nodes
		out[r] = append(out[r], nodeName(i))
	}
	return out
}

// reconcile compares the desired state with the configuration and
// returns events for everything stale: violated nodes (LoadChange),
// VMs still waiting (VMArrival), and finished vjobs whose VMs linger
// (VMDeparture). Deterministic order; empty when the cluster agrees.
func reconcile(c *sim.Cluster, cfg *vjob.Configuration, jobs []*vjob.VJob) []core.Event {
	var out []core.Event
	now := c.Now()
	var hot []string
	seen := map[string]bool{}
	for _, v := range cfg.Violations() {
		if !seen[v.Node] {
			seen[v.Node] = true
			hot = append(hot, v.Node)
		}
	}
	if len(hot) > 0 {
		ev := core.Event{Kind: core.LoadChange, At: now, Nodes: hot}
		for _, n := range hot {
			for _, v := range cfg.RunningOn(n) {
				ev.VMs = append(ev.VMs, v.Name)
			}
		}
		out = append(out, ev)
	}
	if waiting := cfg.InState(vjob.Waiting); len(waiting) > 0 {
		names := make([]string, len(waiting))
		for i, v := range waiting {
			names[i] = v.Name
		}
		out = append(out, core.Event{Kind: core.VMArrival, At: now, VMs: names})
	}
	var done []string
	for _, j := range jobs {
		if !c.VJobDone(j) {
			continue
		}
		for _, v := range j.VMs {
			if cfg.VM(v.Name) != nil {
				done = append(done, v.Name)
			}
		}
	}
	if len(done) > 0 {
		sort.Strings(done)
		out = append(out, core.Event{Kind: core.VMDeparture, At: now, VMs: done})
	}
	return out
}

// ChaosStudy runs every requested scenario cell.
func ChaosStudy(opts ChaosOptions) []ChaosResult {
	var rows []ChaosResult
	for _, s := range opts.scenarios() {
		rows = append(rows, RunChaos(s, opts))
	}
	return rows
}

// ChaosTable renders the study.
func ChaosTable(rows []ChaosResult) string {
	var b strings.Builder
	b.WriteString("Chaos study: recovery-time distributions and structural breaches per scenario (event-driven loop)\n")
	fmt.Fprintf(&b, "%-13s %8s %8s %8s %8s %8s %8s %6s %8s %8s %10s %8s %9s\n",
		"scenario", "episodes", "rec-p50", "rec-p95", "rec-max", "rem-p50", "rem-p95", "open", "dropped", "breaches", "viol-sec", "final", "done/arr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %8d %8.0f %8.0f %8.0f %8.0f %8.0f %6d %8d %8d %10.0f %8d %5d/%-3d\n",
			r.Scenario, r.Episodes, r.RecoveryP50, r.RecoveryP95, r.RecoveryMax,
			r.RemediationP50, r.RemediationP95,
			r.Unrecovered, r.Dropped, r.Breaches, r.ViolationSeconds,
			r.FinalViolations, r.Completed, r.Arrived)
	}
	return b.String()
}

// ChaosCSV renders the rows for external plotting.
func ChaosCSV(rows []ChaosResult) string {
	var b strings.Builder
	b.WriteString("scenario,episodes,recovery_p50,recovery_p95,recovery_max,remediation_p50,remediation_p95,remediation_max,matched_episodes,unrecovered,dropped,breaches,violation_seconds,final_violations,sub_solves,full_solves,repairs,switches,events,arrived,completed,end,top_vjob,top_vjob_viol_sec,top_node,top_node_viol_sec,rule_breach_sec\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%d,%d,%d,%d,%.1f,%d,%d,%d,%d,%d,%d,%d,%d,%.0f,%s,%.1f,%s,%.1f,%.1f\n",
			r.Scenario, r.Episodes, r.RecoveryP50, r.RecoveryP95, r.RecoveryMax,
			r.RemediationP50, r.RemediationP95, r.RemediationMax, r.MatchedEpisodes,
			r.Unrecovered, r.Dropped, r.Breaches, r.ViolationSeconds, r.FinalViolations,
			r.Stats.SubSolves, r.Stats.FullSolves, r.Stats.Repairs, r.Switches,
			r.Stats.Events, r.Arrived, r.Completed, r.End,
			r.TopVJob, r.TopVJobSeconds, r.TopNode, r.TopNodeSeconds, r.RuleBreachSeconds)
	}
	return b.String()
}

//go:embed traces/*.jsonl
var sampleTraces embed.FS

// SampleTraces lists the committed sample traces by name.
func SampleTraces() []string {
	entries, err := sampleTraces.ReadDir("traces")
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		out = append(out, strings.TrimSuffix(e.Name(), ".jsonl"))
	}
	sort.Strings(out)
	return out
}

// SampleTrace decodes one committed sample trace by name.
func SampleTrace(name string) ([]trace.Record, error) {
	data, err := sampleTraces.ReadFile("traces/" + name + ".jsonl")
	if err != nil {
		return nil, fmt.Errorf("experiments: unknown sample trace %q (have %v)", name, SampleTraces())
	}
	return trace.Decode(bytes.NewReader(data))
}
