package main

import (
	"runtime"
	"syscall"
	"time"
)

// runChurn replays one churn episode: the loop, drivers and monitors
// over the simulator, run to quiescence.
func runChurn(e *env, seeds *seedStream) *report {
	return runEpisode(e, seeds, func(e *env, seed int64) (*liveCluster, func(*report)) {
		lc := newLiveCluster(e, e.set.churn, seed)
		return lc, func(*report) { lc.runChunk(e.set.churn.Horizon) }
	})
}

// runEpisode times the set-ups, then replays exactly one episode on a
// fresh cluster from the seed stream, so every run measures the same
// amount of work however fast the host is. newEpisode builds an
// episode's cluster and returns the function that drives it to its
// end.
func runEpisode(e *env, seeds *seedStream, newEpisode func(*env, int64) (*liveCluster, func(*report))) *report {
	r := newReport()
	r.setup = setups(func(seed int64) { newEpisode(newEnv(false, e.set), seed) }, seeds)
	lc, drive := newEpisode(e, seeds.next())
	if e.p != nil {
		lc.act.beforeWake = lc.sweepOnce(e.set.churn.ArrivalStop)
	}
	spent := e.o.spent
	t0, c0 := time.Now(), cpuTime()
	lc.start()
	drive(r)
	wall := time.Since(t0)
	audit := e.o.spent - spent
	r.wall = (wall - audit).Seconds()
	r.cpu = (cpuTime() - c0 - audit).Seconds()
	lc.finish(r)
	return r
}

// sweepOnce returns a wake hook that, once the virtual clock passes
// at, times one state-query sweep over the live configuration.
func (lc *liveCluster) sweepOnce(at float64) func() {
	return func() {
		if lc.e.c.swept || lc.c.Now() < at {
			return
		}
		lc.e.c.swept = true
		lc.e.p.span("bench.sweep", func() {
			lc.e.c.sweepMS, lc.e.c.sweepClone, lc.e.c.sweepViolMS = sweep(lc.cfg)
		})
	}
}

// finish runs the end-of-episode oracle and folds the episode's
// outcomes into the report.
func (lc *liveCluster) finish(r *report) {
	lc.recovery.CloseAt(lc.c.Now())
	lc.e.o.finalChecks(lc.e.p, lc.c, lc.inv, lc.ledger, lc.jobs)
	r.viol = append(r.viol, lc.ledger.Total())
	r.turnaround = append(r.turnaround, lc.turnarounds()...)
	for _, rec := range lc.loop.Records {
		r.costs = append(r.costs, float64(rec.Cost))
	}
	r.reactVS = append(r.reactVS, lc.recovery.Durations...)
	r.addLoop(lc.loop)
}

// cpuTime is the CPU time the process has used, user and system, on all
// its threads. Unlike wall time it does not grow while the host hands
// the processors to other tenants, which on a shared machine moved one
// seed's episode wall time by 40% between runs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupSamples is how many set-ups a run times, after setupWarmup
// untimed ones. One set-up takes about a millisecond, so setup_s is the
// median of many.
const (
	setupSamples = 61
	setupWarmup  = 5
)

// setups times build on seeds drawn ahead of the episodes. Each timed
// set-up starts from a collected heap, so every run measures them in
// the same state; the heap is collected again before the episodes.
func setups(build func(seed int64), seeds *seedStream) []float64 {
	out := make([]float64, 0, setupSamples)
	for i := 0; i < setupWarmup+setupSamples; i++ {
		seed := seeds.next()
		runtime.GC()
		t0 := time.Now()
		build(seed)
		if i >= setupWarmup {
			out = append(out, time.Since(t0).Seconds())
		}
	}
	runtime.GC()
	return out
}
