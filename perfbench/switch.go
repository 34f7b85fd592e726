package main

import (
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

// switchParams is the §5.1 context switch (the fig10 -quick shape):
// 200-node configurations, one monolithic optimizer solve per instance
// under a fixed budget, FFD as the baseline.
type switchParams struct {
	Nodes, NodeCPU, NodeMemory int
	// VMCounts is the instance-size cycle.
	VMCounts []int
	Budget   time.Duration
}

func defaultSwitch() switchParams {
	return switchParams{
		Nodes: 200, NodeCPU: 2, NodeMemory: 4096,
		VMCounts: []int{54, 108, 162, 216},
		Budget:   2 * time.Second,
	}
}

// switchProbe runs one size cycle of the §5.1 context switch on
// configurations drawn from seed and reports the solver's plan cost
// against FFD's at equal budget, with its search counters. Its oracle
// verdicts join e's.
func switchProbe(e *env, seed int64) map[string]metric {
	prm := e.set.sw
	sub := newEnv(true, e.set)
	r := newReport()
	seeds := newSeedStream(seed)
	var optCost, ffdCost float64
	for _, n := range prm.VMCounts {
		rng := rand.New(rand.NewSource(seeds.next()))
		g := workload.GenerateConfiguration(rng, workload.GenerateOptions{
			Nodes: prm.Nodes, NodeCPU: prm.NodeCPU, NodeMemory: prm.NodeMemory, VMs: n,
		})
		if o, f, ok := switchInstance(sub, r, prm, g); ok {
			optCost += o
			ffdCost += f
		}
	}
	e.o.absorb(sub.o)
	solveS := sum(r.solveMS) / 1e3
	return map[string]metric{
		"core.cost_ratio":     {ratio(optCost, ffdCost), "ratio"},
		"core.ffd_s":          {sub.p.inclSeconds("core.ffd"), "s"},
		"switch.solve_s":      {solveS, "s"},
		"switch.search_nodes": {float64(r.searchNodes), "count"},
		"switch.nodes_per_s":  {ratio(float64(r.searchNodes), solveS), "1/s"},
		"switch.proved":       {float64(r.proved), "count"},
		"switch.violation_s":  {sum(r.viol), "s"},
	}
}

// switchInstance runs one context switch: decide, FFD baseline,
// optimizer solve, oracle, then the plan's execution on a simulated
// copy of the cluster, whose violation-seconds it records.
func switchInstance(e *env, r *report, prm switchParams, g workload.Generated) (optCost, ffdCost float64, ok bool) {
	var target map[string]vjob.State
	e.p.span("sched.decide", func() { target = sched.Consolidation{}.Decide(g.Cfg, g.Jobs) })
	problem := core.Problem{Src: g.Cfg, Target: target}
	var ffd, res *core.Result
	var ffdErr, err error
	e.p.span("core.ffd", func() { ffd, ffdErr = core.FFDPlan(problem) })
	t0 := time.Now()
	e.p.span("core.solve", func() {
		res, err = core.Optimizer{Timeout: prm.Budget, Workers: 1, Partitions: 1}.Solve(problem)
	})
	solveMS := ms(time.Since(t0))
	e.o.op(ffdErr == nil, "FFD found no plan: %v", ffdErr)
	e.o.op(err == nil, "optimizer found no plan: %v", err)
	if err != nil || ffdErr != nil {
		return 0, 0, false
	}
	r.solveMS = append(r.solveMS, solveMS)
	r.searchNodes += res.Nodes
	if res.Optimal {
		r.proved++
	}
	e.o.validate(e.p, "optimizer plan", res.Plan)
	e.o.audit(e.p, "oracle.final", func() {
		dst, rerr := res.Plan.Result()
		e.o.op(rerr == nil && dst.Equal(res.Dst), "optimizer plan result differs from its destination (%v)", rerr)
	})
	execute(e, r, res)
	return float64(res.Cost), float64(ffd.Cost), true
}

// execute runs the solver's plan on a simulated copy of its source and
// checks that the cluster lands on the solver's destination.
func execute(e *env, r *report, res *core.Result) {
	c := sim.New(res.Plan.Src.Clone(), duration.Default())
	var led *monitor.Ledger
	bracket(e, c, "monitor", true, func() { led = monitor.WatchLedger(c, nil) })
	inv := e.o.watchInvariants(e, c)
	var rep drivers.Report
	finished := false
	e.p.span("drivers.execute", func() {
		drivers.Execute(c, res.Plan, func(x drivers.Report) { rep, finished = x, true })
	})
	e.p.span("sim", func() { c.Run(1e9) })
	e.o.audit(e.p, "oracle.final", func() {
		e.o.op(finished && len(rep.Errs) == 0, "plan execution incomplete or failed: %v", rep.Errs)
		e.o.op(inv.StructuralCount() == 0, "%d structural invariant breaches: %v", inv.StructuralCount(), inv.Err())
		e.o.op(c.Config().Equal(res.Dst), "executed configuration differs from the destination")
	})
	r.viol = append(r.viol, led.Total())
}
