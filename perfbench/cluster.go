package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/duration"
	"cwcs/internal/monitor"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// churnParams is the event-driven churn scenario of BENCH_eventloop:
// a cluster under Poisson vjob arrivals, NGB phase load changes and
// injected action failures, driven by the event-driven loop with auto
// partitioning.
type churnParams struct {
	Nodes, NodeCPU, NodeMemory int
	InitialVJobs, VMsPerVJob   int
	ArrivalRate, ArrivalStop   float64
	Horizon, Debounce          float64
	Budget                     time.Duration
	FailureRate                float64
}

func defaultChurn() churnParams {
	return churnParams{
		Nodes: 500, NodeCPU: 2, NodeMemory: 4096,
		InitialVJobs: 40, VMsPerVJob: 9,
		ArrivalRate: 1.0 / 30, ArrivalStop: 900,
		Horizon: 6000, Debounce: 5,
		// Budget is the wall-clock budget of one loop solve. A slice with
		// neither an FFD nor a warm-start seed must find its first
		// solution within it: when one of a full solve's partitions does
		// not, the optimizer falls back to the whole-cluster FFD plan,
		// which moves nearly every VM and more than doubles the episode's
		// turnaround (one ops seed: 331 → 709 vs at a 1 ms budget). On ops
		// such seedless slices come from drains, and on one processor the
		// slowest first solution seen took 47 ms on an idle 2-core host
		// and 95 ms with six busy processes beside it, so 100 ms left a
		// shared host one stall away from that cliff. 250 ms keeps a
		// margin without letting the budget-bound solves, whose CPU time
		// shrinks when the host is busy, dominate run_cpu_s.
		Budget:      250 * time.Millisecond,
		FailureRate: 0.02,
	}
}

// liveCluster is one simulated cluster under the event-driven loop,
// wired from the layers' public APIs.
type liveCluster struct {
	prm      churnParams
	e        *env
	cfg      *vjob.Configuration
	c        *sim.Cluster
	jobs     []*vjob.VJob
	loop     *core.Loop
	act      *meteredActuator
	drains   *core.DrainSet
	ledger   *monitor.Ledger
	recovery *monitor.RecoveryLog
	inv      *sim.Invariants
	// arrival and finished are the virtual instants each vjob was
	// submitted and each VM finished its work.
	arrival  map[string]float64
	finished map[string]float64
	genRng   *rand.Rand
	arrRng   *rand.Rand
	next     int
}

// newLiveCluster builds the initial population and wires loop,
// drivers, monitors and oracle; nothing runs until start.
func newLiveCluster(e *env, prm churnParams, seed int64) *liveCluster {
	lc := &liveCluster{
		prm:      prm,
		e:        e,
		cfg:      vjob.NewConfiguration(),
		genRng:   rand.New(rand.NewSource(seed)),
		arrRng:   rand.New(rand.NewSource(seed + 1)),
		drains:   &core.DrainSet{},
		arrival:  map[string]float64{},
		finished: map[string]float64{},
	}
	for i := 0; i < prm.Nodes; i++ {
		lc.cfg.AddNode(vjob.NewNode(fmt.Sprintf("node%04d", i), prm.NodeCPU, prm.NodeMemory))
	}
	lc.c = sim.New(lc.cfg, duration.Default())
	for i := 0; i < prm.InitialVJobs; i++ {
		lc.submit()
	}
	lc.loop = &core.Loop{
		Decision:    timedDecision{inner: reaper{c: lc.c, inner: sched.Consolidation{}, jobs: func() []*vjob.VJob { return lc.jobs }}, e: e},
		Trace:       e.tracer,
		Solver:      e.solver,
		Optimizer:   core.Optimizer{Timeout: prm.Budget, Workers: 1},
		EventDriven: true,
		Debounce:    prm.Debounce,
		Drains:      lc.drains,
		Queue:       func() []*vjob.VJob { return lc.jobs },
		Done:        lc.done,
	}
	lc.act = &meteredActuator{inner: &drivers.Actuator{C: lc.c, Trace: e.tracer}, e: e}
	if prm.FailureRate > 0 {
		lc.c.InstallFailureStorm(rand.New(rand.NewSource(seed+2)), sim.FailureStorm{Base: prm.FailureRate})
	}
	lc.c.OnLoadChange(func(vm string) {
		if _, seen := lc.finished[vm]; !seen && lc.c.WorkloadDone(vm) {
			lc.finished[vm] = lc.c.Now()
		}
		e.p.span("core.notify", func() {
			lc.loop.Notify(lc.act, core.Event{Kind: core.LoadChange, At: lc.c.Now(), VMs: []string{vm}})
		})
	})
	bracket(e, lc.c, "monitor", true, func() {
		lc.ledger = monitor.WatchLedger(lc.c, lc.drains.Rules)
		lc.recovery = monitor.WatchRecovery(lc.c)
	})
	lc.inv = e.o.watchInvariants(e, lc.c)
	return lc
}

// submit generates and installs the next vjob of the stream.
func (lc *liveCluster) submit() *vjob.VJob {
	i := lc.next
	lc.next++
	bench := workload.Benchmarks[i%len(workload.Benchmarks)]
	class := workload.Classes[1+i%2]
	spec := workload.NewSpec(fmt.Sprintf("vjob%04d", i), bench, class, lc.prm.VMsPerVJob, i, lc.genRng)
	spec.Install(lc.cfg, lc.c)
	lc.jobs = append(lc.jobs, spec.Job)
	lc.arrival[spec.Job.Name] = lc.c.Now()
	return spec.Job
}

// turnarounds returns each vjob's virtual time from submission to the
// end of its last VM's work. The oracle checks that every vjob's
// submission was recorded and precedes the end of its work.
func (lc *liveCluster) turnarounds() []float64 {
	out := make([]float64, 0, len(lc.jobs))
	for _, j := range lc.jobs {
		end := 0.0
		for _, v := range j.VMs {
			if t := lc.finished[v.Name]; t > end {
				end = t
			}
		}
		at, ok := lc.arrival[j.Name]
		lc.e.o.op(ok && at < end, "vjob %s: submission at %v (recorded %v), work ended at %v", j.Name, at, ok, end)
		out = append(out, end-at)
	}
	return out
}

// notifyArrival tells the loop about the VMs of a new vjob.
func (lc *liveCluster) notifyArrival(j *vjob.VJob) {
	names := make([]string, len(j.VMs))
	for i, v := range j.VMs {
		names[i] = v.Name
	}
	lc.loop.Notify(lc.act, core.Event{Kind: core.VMArrival, At: lc.c.Now(), VMs: names})
}

// scheduleArrivals schedules the arrival stream: ArrivalRate ×
// ArrivalStop vjobs at instants drawn uniformly over [0, ArrivalStop] —
// a Poisson process conditioned on its count, so every seed submits the
// same amount of work.
func (lc *liveCluster) scheduleArrivals() {
	n := int(math.Round(lc.prm.ArrivalRate * lc.prm.ArrivalStop))
	for i := 0; i < n; i++ {
		lc.c.Schedule(lc.arrRng.Float64()*lc.prm.ArrivalStop, func() {
			lc.e.p.span("workload.arrival", func() { lc.notifyArrival(lc.submit()) })
		})
	}
}

// done is the loop's stop condition: arrivals are over and every vjob
// finished its work and was reaped.
func (lc *liveCluster) done() bool {
	if lc.c.Now() <= lc.prm.ArrivalStop {
		return false
	}
	for _, j := range lc.jobs {
		if !lc.c.VJobDone(j) {
			return false
		}
		for _, v := range j.VMs {
			if lc.cfg.VM(v.Name) != nil {
				return false
			}
		}
	}
	return true
}

// start arms the arrival stream and the loop's bootstrap iteration.
func (lc *liveCluster) start() {
	lc.scheduleArrivals()
	lc.loop.Start(lc.act)
}

// runChunk advances the simulation to until, timed as the sim layer.
func (lc *liveCluster) runChunk(until float64) {
	lc.e.p.span("sim", func() { lc.c.Run(until) })
}

// reaper is the decision module of the churn scenario: the paper's
// consolidation policy, plus termination of the vjobs whose work is
// done. Terminations ride on their own round so freeing resources never
// depends on the feasibility of the rest of the decision.
type reaper struct {
	inner core.DecisionModule
	c     *sim.Cluster
	jobs  func() []*vjob.VJob
}

func (r reaper) Decide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State {
	var live []*vjob.VJob
	for _, j := range queue {
		if !r.c.VJobDone(j) {
			live = append(live, j)
		}
	}
	target := r.inner.Decide(cfg, live)
	for _, j := range r.jobs() {
		if !r.c.VJobDone(j) {
			continue
		}
		present, allRunning := false, true
		for _, v := range j.VMs {
			if cfg.VM(v.Name) == nil {
				continue
			}
			present = true
			if cfg.StateOf(v.Name) != vjob.Running {
				allRunning = false
			}
		}
		switch {
		case !present:
		case allRunning:
			target[j.Name] = vjob.Terminated
		default:
			// Sleeping -> Running -> Terminated: resume first, stop on
			// a later round.
			target[j.Name] = vjob.Running
		}
	}
	return target
}
