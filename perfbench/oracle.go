package main

import (
	"fmt"
	"time"

	"cwcs/internal/monitor"
	"cwcs/internal/plan"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// oracle checks every output the workloads produce. attempted counts
// the operations a workload asked of the program, failed the ones that
// went wrong; misses keeps the first few reasons. spent is the time the
// checks themselves took: it is measured in every run and taken out of
// the episode's wall and CPU time, so the audit never passes for
// program work.
type oracle struct {
	attempted, failed int
	misses            []string
	spent             time.Duration
}

// op records one attempted operation and whether it succeeded.
func (o *oracle) op(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.miss(format, args...)
	}
}

// miss records a failed check without counting a new attempt.
func (o *oracle) miss(format string, args ...any) {
	o.failed++
	if len(o.misses) < 20 {
		o.misses = append(o.misses, fmt.Sprintf(format, args...))
	}
}

// absorb adds another oracle's verdicts to o.
func (o *oracle) absorb(other *oracle) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.misses = append(o.misses, other.misses...)
}

// audit runs fn as oracle time.
func (o *oracle) audit(p *probe, layer string, fn func()) {
	t0 := time.Now()
	p.span(layer, fn)
	o.spent += time.Since(t0)
}

// validate checks one plan handed to the drivers.
func (o *oracle) validate(p *probe, what string, pl *plan.Plan) {
	var err error
	o.audit(p, "plan.validate", func() { err = pl.Validate() })
	o.op(err == nil, "%s rejected by plan.Validate: %v", what, err)
}

// watchInvariants attaches the structural invariant audit, its time
// bracketed as oracle time.
func (o *oracle) watchInvariants(e *env, c *sim.Cluster) *sim.Invariants {
	var inv *sim.Invariants
	var t0 time.Time
	c.OnAdvance(func() {
		t0 = time.Now()
		e.p.enter("oracle.audit")
	})
	inv = sim.WatchInvariants(c)
	c.OnAdvance(func() {
		e.p.exit()
		o.spent += time.Since(t0)
	})
	return inv
}

// finalChecks are the end-of-episode checks of a live cluster: zero
// structural breaches, a conserved ledger, every arrived vjob done and
// reaped, and a violation-free final configuration.
func (o *oracle) finalChecks(p *probe, c *sim.Cluster, inv *sim.Invariants, led *monitor.Ledger, jobs []*vjob.VJob) {
	o.audit(p, "oracle.final", func() {
		o.op(inv.StructuralCount() == 0, "%d structural invariant breaches: %v", inv.StructuralCount(), inv.Err())
		sum := 0.0
		for _, e := range led.VJobTotals() {
			sum += e.Seconds
		}
		o.op(sum == led.Total(), "ledger not conserved: vjob rows sum to %v, total %v", sum, led.Total())
		cfg := c.Config()
		for _, j := range jobs {
			reaped := true
			for _, v := range j.VMs {
				if cfg.VM(v.Name) != nil {
					reaped = false
				}
			}
			o.op(c.VJobDone(j) && reaped, "vjob %s not completed (done=%v reaped=%v)", j.Name, c.VJobDone(j), reaped)
		}
		v := cfg.Violations()
		o.op(len(v) == 0, "%d violations left at the end: %v", len(v), v)
	})
}
