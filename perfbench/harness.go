package main

import (
	"time"

	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/obs"
	"cwcs/internal/plan"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// env is what every workload shares: the traced run's probe and span
// collectors (nil when untraced), the oracle, and the layer counters
// the wrappers fill in both modes.
type env struct {
	set    settings
	p      *probe
	o      *oracle
	tracer *obs.Tracer
	spans  []obs.SpanRecord
	solver *core.SolverTelemetry
	c      counters
}

// counters are the per-layer work counts and samples gathered by the
// benchmark-owned wrappers.
type counters struct {
	wakeMS      []float64
	actions     int
	pools       int
	failures    int
	advances    int64
	sweepMS     float64
	sweepClone  float64
	sweepViolMS float64
	swept       bool
	holdMS      []float64
	routeMS     map[string][]float64
}

func newEnv(traced bool, set settings) *env {
	e := &env{set: set, o: &oracle{}, c: counters{routeMS: map[string][]float64{}}}
	if traced {
		e.p = newProbe()
		e.tracer = obs.NewTracer(0)
		e.tracer.OnClose(func(r obs.SpanRecord) { e.spans = append(e.spans, r) })
		e.solver = core.NewSolverTelemetry(0)
	}
	return e
}

// timedDecision times the decision module.
type timedDecision struct {
	inner core.DecisionModule
	e     *env
}

func (d timedDecision) Decide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State {
	var out map[string]vjob.State
	d.e.p.span("sched.decide", func() { out = d.inner.Decide(cfg, queue) })
	return out
}

// meteredActuator forwards to the drivers' simulator actuator. It
// times every loop callback it hands to the simulator (a wake-up),
// every Observe and every execution start, checks each plan with the
// oracle before the drivers see it, and wraps the execution handle so
// splices are checked and timed too. It implements
// core.ManagedActuator, without which the event-driven loop would
// silently fall back to unmanaged execution and stop repairing.
type meteredActuator struct {
	inner *drivers.Actuator
	e     *env
	// beforeWake, when set, runs ahead of each wake-up's callback
	// (the traced run's live-configuration sweep probe).
	beforeWake func()
}

func (a *meteredActuator) Now() float64 { return a.inner.Now() }

// Schedule hands the simulator a timed copy of the loop's callback.
func (a *meteredActuator) Schedule(at float64, fn func()) {
	a.inner.Schedule(at, func() {
		if a.beforeWake != nil {
			a.beforeWake()
		}
		t0 := time.Now()
		a.e.p.span("core.loop", fn)
		a.e.c.wakeMS = append(a.e.c.wakeMS, ms(time.Since(t0)))
	})
}

func (a *meteredActuator) Observe() *vjob.Configuration {
	var cfg *vjob.Configuration
	a.e.p.span("drivers.observe", func() { cfg = a.inner.Observe() })
	return cfg
}

func (a *meteredActuator) loopCall(fn func()) { a.e.p.span("core.loop", fn) }

func (a *meteredActuator) admit(p *plan.Plan) {
	a.e.c.actions += p.NumActions()
	a.e.c.pools += len(p.Pools)
	a.e.o.validate(a.e.p, "plan", p)
}

func (a *meteredActuator) Execute(p *plan.Plan, done func(duration float64, failures int)) {
	a.admit(p)
	a.e.p.span("drivers.execute", func() {
		a.inner.Execute(p, func(d float64, f int) {
			a.e.c.failures += f
			a.loopCall(func() { done(d, f) })
		})
	})
}

func (a *meteredActuator) ExecuteManaged(p *plan.Plan, onFailure func(plan.Action, error), onPoolDone func(), done func(duration float64, failures int)) core.Execution {
	a.admit(p)
	var ex *drivers.Execution
	a.e.p.span("drivers.execute", func() {
		ex = a.inner.ExecuteManaged(p,
			func(act plan.Action, err error) { a.loopCall(func() { onFailure(act, err) }) },
			func() { a.loopCall(onPoolDone) },
			func(d float64, f int) {
				a.e.c.failures += f
				a.loopCall(func() { done(d, f) })
			}).(*drivers.Execution)
	})
	return &meteredExecution{Execution: ex, e: a.e}
}

// meteredExecution checks and times the splices a repair grafts onto
// an executing plan.
type meteredExecution struct {
	*drivers.Execution
	e *env
}

func (x *meteredExecution) Remaining() *plan.Plan {
	var p *plan.Plan
	x.e.p.span("drivers.observe", func() { p = x.Execution.Remaining() })
	return p
}

func (x *meteredExecution) Splice(p *plan.Plan) error {
	x.e.o.validate(x.e.p, "splice", p)
	var err error
	x.e.p.span("plan.splice", func() { err = x.Execution.Splice(p) })
	return err
}

// unwrapExecution recovers the drivers' handle behind the loop's
// execution (the control plane serves its per-action status); nil when
// nothing executes.
func unwrapExecution(ex core.Execution) *drivers.Execution {
	if m, ok := ex.(*meteredExecution); ok {
		return m.Execution
	}
	return nil
}

// bracket registers benchmark-owned OnAdvance hooks just before and
// just after attach, so the hooks attach registers are timed as one
// frame of layer per simulation advance. The first hook also counts
// advances when countAdvances is set. Untraced, attach runs bare.
func bracket(e *env, c *sim.Cluster, layer string, countAdvances bool, attach func()) {
	if e.p == nil {
		attach()
		return
	}
	c.OnAdvance(func() {
		if countAdvances {
			e.c.advances++
		}
		e.p.enter(layer)
	})
	attach()
	c.OnAdvance(func() { e.p.exit() })
}

// sweep times the state queries the simulator leans on, over every node
// of cfg: one RunningOn call per node, then one Clone and one
// Violations scan.
func sweep(cfg *vjob.Configuration) (sweepMS, cloneMS, violMS float64) {
	t0 := time.Now()
	for _, node := range cfg.Nodes() {
		cfg.RunningOn(node.Name)
	}
	sweepMS = ms(time.Since(t0))
	t0 = time.Now()
	cfg.Clone()
	cloneMS = ms(time.Since(t0))
	t0 = time.Now()
	cfg.Violations()
	violMS = ms(time.Since(t0))
	return
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
