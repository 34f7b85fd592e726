package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/duration"
	"cwcs/internal/monitor"
	"cwcs/internal/obs"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/trace"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// The scenario runner. The churn, chaos, drain and repair-storm
// studies all run the same episode: a seeded vjob population on a
// node%03d cluster, an arrival source, the control loop fed by the
// simulator's monitoring signal, injected action failures, and a fold
// of the run into an Outcome. scenario.run is the only place that
// builds it. A study contributes its own parts through the setup hook
// (fault schedules, probes, a filter on the feed, the loop's Done) and
// folds its own columns from the returned episode.
//
// The runner owns the rng-stream layout: Seed drives the workload
// generator, Seed+1 the Poisson arrival chain and Seed+2 the action
// failures. A study that needs more randomness draws it from a stream
// above Seed+2 (chaos uses Seed+3), so for a given seed every study
// replays the identical population, arrivals and failures.

// Outcome is what every episode measures; the study results embed it.
type Outcome struct {
	// Stats is the loop telemetry: solver invocations, slice solves,
	// repairs, coalesced events.
	Stats core.LoopStats
	// Switches counts executed context switches; Failures the failed
	// actions across them.
	Switches, Failures int
	// ViolationSeconds integrates len(Violations()) over virtual time:
	// the cumulative exposure to capacity violations.
	ViolationSeconds float64
	// FinalViolations is the violation count at the horizon (0 = the
	// loop reached a violation-free configuration).
	FinalViolations int
	// Breaches counts the structural sim.WatchInvariants errors —
	// negative usage, placements on absent nodes. Audited only when
	// the scenario's WatchInvariants is set; always expected 0.
	// Capacity overloads from churn are measured by ViolationSeconds
	// instead.
	Breaches int
	// Arrived and Completed count vjobs over the run.
	Arrived, Completed int
	// End is the virtual time the simulation went quiescent.
	End float64
	// Wall is the real time from starting the loop until the simulator
	// run returns; building the cluster beforehand is excluded.
	Wall time.Duration
	// Episodes counts closed violation episodes
	// (monitor.WatchRecovery); Recoveries are their lengths in virtual
	// seconds and RecoveryP50/P95/Max the nearest-rank quantiles.
	// Unrecovered counts an episode still open at the horizon
	// (censored: its partial length enters the distribution too).
	Episodes                              int
	Recoveries                            []float64
	RecoveryP50, RecoveryP95, RecoveryMax float64
	Unrecovered                           int
	// Remediations are the per-episode event-to-remediation times
	// (obs.RemediationTimes), aligned with Recoveries: the causal
	// reconfiguration span clamped to the episode, so remediation <=
	// recovery per episode by construction. MatchedEpisodes counts
	// episodes a span actually covered (the rest fall back to the
	// full recovery time); RemediationP50/P95/Max summarize them.
	MatchedEpisodes                                int
	Remediations                                   []float64
	RemediationP50, RemediationP95, RemediationMax float64
	// Spans is the retained span stream when CollectSpans is set.
	Spans []obs.SpanRecord
	// Ledger is the per-entity attribution behind ViolationSeconds
	// (ViolationSeconds == Ledger.Total() by construction). TopVJob /
	// TopNode name the worst-suffering vjob and node with their
	// violation-second integrals (empty when the run stayed clean);
	// RuleBreachSeconds integrates drain rules breached while a
	// drained node still hosted VMs.
	Ledger            *monitor.Ledger
	TopVJob           string
	TopVJobSeconds    float64
	TopNode           string
	TopNodeSeconds    float64
	RuleBreachSeconds float64
}

// scenario is one episode to run.
type scenario struct {
	// opts describes the cluster, the population, the arrivals, the
	// loop and the action failures.
	opts        ChurnOptions
	eventDriven bool
	// trace, when non-nil, is replayed (trace.StartReplay) instead of
	// generating the initial vjobs and the Poisson arrivals.
	trace []trace.Record
	// setup installs the study's own parts once the population, the
	// arrival source and the loop exist, before the loop starts.
	setup func(*episode)
}

// episode is the live state of a scenario: handed to the setup hook,
// and returned by run for the study's own fold.
type episode struct {
	c      *sim.Cluster
	cfg    *vjob.Configuration
	loop   *core.Loop
	drains *core.DrainSet
	// feed is the monitoring path into the loop: load changes,
	// arrivals and every event a study offers go through it. A setup
	// hook may wrap it; no event is offered before the run starts.
	feed   func(core.Event)
	jobs   []*vjob.VJob
	replay *trace.Replay
	out    Outcome
}

// notify offers ev through the feed in force when it is called.
func (e *episode) notify(ev core.Event) { e.feed(ev) }

// queue is the live vjob queue: the generated jobs, or the replayed
// ones.
func (e *episode) queue() []*vjob.VJob {
	if e.replay != nil {
		return e.replay.Jobs()
	}
	return e.jobs
}

// drain orders node n evacuated — a drain rule forbidding it to the
// optimizer plus a NodeDown event naming its running VMs, the signal
// path of the control plane's drain — unless it is already draining.
func (e *episode) drain(n string) {
	if !e.drains.Drain(n) {
		return
	}
	ev := core.Event{Kind: core.NodeDown, At: e.c.Now(), Nodes: []string{n}}
	for _, v := range e.cfg.RunningOn(n) {
		ev.VMs = append(ev.VMs, v.Name)
	}
	e.notify(ev)
}

// run builds the episode, runs it to the horizon and folds the Outcome.
func (s scenario) run() *episode {
	o := s.opts
	genRng := rand.New(rand.NewSource(o.Seed))
	arrRng := rand.New(rand.NewSource(o.Seed + 1))
	failRng := rand.New(rand.NewSource(o.Seed + 2))

	cfg := vjob.NewConfiguration()
	for i := 0; i < o.Nodes; i++ {
		cfg.AddNode(vjob.NewNode(nodeName(i), o.NodeCPU, o.NodeMemory))
	}
	c := sim.New(cfg, duration.Default())
	e := &episode{c: c, cfg: cfg, drains: &core.DrainSet{}}

	submit := func(i int) workload.Spec {
		bench := workload.Benchmarks[i%len(workload.Benchmarks)]
		class := workload.Classes[1+i%2]
		spec := workload.NewSpec(fmt.Sprintf("vjob%03d", i), bench, class, o.VMsPerVJob, i, genRng)
		scalePhases(&spec, o.WorkScale)
		spec.Install(cfg, c)
		e.jobs = append(e.jobs, spec.Job)
		return spec
	}
	if s.trace == nil {
		for i := 0; i < o.InitialVJobs; i++ {
			submit(i)
		}
		e.out.Arrived = o.InitialVJobs
	}

	// The span stream is the latency instrument: the closed
	// reconfiguration spans yield the event-to-remediation columns, and
	// CollectSpans widens retention to the whole pipeline (-trace-out).
	// The tracer adds no randomness, so seeded runs stay byte-identical.
	tracer := obs.NewTracer(0)
	var reconfigs []obs.SpanRecord
	tracer.OnClose(func(r obs.SpanRecord) {
		if r.Kind == obs.KindReconfig.String() {
			reconfigs = append(reconfigs, r)
		}
		if o.CollectSpans {
			e.out.Spans = append(e.out.Spans, r)
		}
	})

	e.loop = &core.Loop{
		// The terminator reads the live (growing) queue through the
		// method value, not a snapshot.
		Decision:    queueTerminator{c: c, inner: sched.Consolidation{}, queue: e.queue},
		Trace:       tracer,
		Optimizer:   core.Optimizer{Timeout: o.Timeout, Workers: o.Workers, Partitions: o.Partitions},
		Interval:    o.Interval,
		EventDriven: s.eventDriven,
		Debounce:    o.Debounce,
		RepairWiden: o.RepairWiden,
		Drains:      e.drains,
		Queue:       e.queue,
	}
	act := &drivers.Actuator{C: c, Trace: tracer}
	// The periodic loop ignores Notify, so the feed is wired either way.
	e.feed = func(ev core.Event) { e.loop.Notify(act, ev) }

	// Injected action failures (the flaky-driver model), optionally
	// spiked by a storm window. The storm draws the same one-variate-
	// per-action stream as the flat rate, so seeded runs stay
	// comparable across rates.
	if o.FailureRate > 0 || o.StormRate > 0 {
		c.InstallFailureStorm(failRng, sim.FailureStorm{
			Base: o.FailureRate, Storm: o.StormRate,
			From: o.StormFrom, Until: o.StormUntil,
		})
	}

	var inv *sim.Invariants
	if o.WatchInvariants {
		inv = sim.WatchInvariants(c)
	}

	c.OnLoadChange(func(vm string) {
		e.notify(core.Event{Kind: core.LoadChange, At: c.Now(), VMs: []string{vm}})
	})

	// The arrival source: the trace, or Poisson arrivals until
	// ArrivalStop.
	if s.trace != nil {
		e.replay = trace.StartReplay(c, s.trace, e.notify)
	} else if o.ArrivalRate > 0 {
		idx := o.InitialVJobs
		var scheduleArrival func()
		scheduleArrival = func() {
			at := c.Now() + arrRng.ExpFloat64()/o.ArrivalRate
			if at > o.ArrivalStop {
				return
			}
			c.Schedule(at, func() {
				spec := submit(idx)
				idx++
				e.out.Arrived++
				names := make([]string, len(spec.Job.VMs))
				for i, v := range spec.Job.VMs {
					names[i] = v.Name
				}
				e.notify(core.Event{Kind: core.VMArrival, At: c.Now(), VMs: names})
				scheduleArrival()
			})
		}
		scheduleArrival()
	}

	s.setup(e)

	led := monitor.WatchLedger(c, e.drains.Rules)
	recovery := monitor.WatchRecovery(c)

	start := time.Now()
	e.loop.Start(act)
	c.Run(o.Horizon)
	out := &e.out
	out.Wall = time.Since(start)

	out.Stats = e.loop.Stats
	out.Switches = len(e.loop.Records)
	for _, r := range e.loop.Records {
		out.Failures += r.Failures
	}
	out.ViolationSeconds = led.Total()
	out.Ledger = led
	if top := led.TopVJobs(1); len(top) > 0 {
		out.TopVJob, out.TopVJobSeconds = top[0].VJob, top[0].Seconds
	}
	if top := led.TopNodes(1); len(top) > 0 {
		out.TopNode, out.TopNodeSeconds = top[0].Node, top[0].Seconds
	}
	out.RuleBreachSeconds = led.RuleBreachSeconds()
	if recovery.Open {
		out.Unrecovered = 1
		recovery.CloseAt(c.Now())
	}
	out.Episodes = recovery.Episodes()
	out.Recoveries = recovery.Durations
	out.RecoveryP50 = recovery.Quantile(0.50)
	out.RecoveryP95 = recovery.Quantile(0.95)
	out.RecoveryMax = recovery.Max()
	out.Remediations, out.MatchedEpisodes = obs.RemediationTimes(reconfigs, recovery.Starts, recovery.Durations)
	out.RemediationP50 = monitor.Quantile(out.Remediations, 0.50)
	out.RemediationP95 = monitor.Quantile(out.Remediations, 0.95)
	out.RemediationMax = monitor.Quantile(out.Remediations, 1)
	out.FinalViolations = len(cfg.Violations())
	if inv != nil {
		out.Breaches = inv.StructuralCount()
	}
	out.End = c.Now()
	if e.replay != nil {
		out.Arrived = len(e.replay.Jobs())
	}
	for _, j := range e.queue() {
		if c.VJobDone(j) {
			out.Completed++
		}
	}
	return e
}

// queueTerminator is the terminator over a live (growing) queue.
type queueTerminator struct {
	inner core.DecisionModule
	c     *sim.Cluster
	queue func() []*vjob.VJob
}

func (t queueTerminator) Decide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State {
	return terminator{inner: t.inner, c: t.c, jobs: t.queue()}.Decide(cfg, queue)
}

// nodeName is the name of the i-th node of a scenario cluster.
func nodeName(i int) string { return fmt.Sprintf("node%03d", i) }

// spreadNodes picks count node names evenly over the index space: the
// drain study's targets and the chaos study's flappers.
func spreadNodes(nodes, count int) []string {
	if count < 1 {
		return nil
	}
	if count > nodes {
		count = nodes
	}
	out := make([]string, count)
	for i := range out {
		out[i] = nodeName(i * nodes / count)
	}
	return out
}
