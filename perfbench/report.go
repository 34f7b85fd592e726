package main

import (
	"math"
	"math/rand"
	"sort"

	"cwcs/internal/core"
)

// report is what one workload run measured: the end-to-end samples
// (set-up and per-episode wall time, per-vjob turnaround) plus the
// outcomes and telemetry the traced run turns into layer metrics.
type report struct {
	setup   []float64 // seconds per set-up
	wall    float64   // wall seconds of the episode, oracle time excluded
	cpu     float64   // CPU seconds of the episode, oracle time excluded
	viol    []float64 // violation-seconds per episode
	costs   []float64 // §4.2 plan cost per context switch
	reactVS []float64 // virtual seconds from violation onset to its end
	// turnaround is each vjob's virtual time from submission to the
	// end of its work.
	turnaround []float64
	// Solver counters of the switch probe, which calls the optimizer
	// directly.
	solveMS     []float64
	searchNodes int64
	proved      int
	// Control-plane samples of the ops workload.
	readMS, writeMS []float64
	readBytes       int64
	drainVS         []float64
	stats           core.LoopStats
}

func newReport() *report { return &report{} }

// addLoop folds one loop's telemetry into the report.
func (r *report) addLoop(l *core.Loop) {
	s := l.Stats
	r.stats.SubSolves += s.SubSolves
	r.stats.Events += s.Events
	r.stats.Coalesced += s.Coalesced
	r.stats.Repairs += s.Repairs
	r.stats.FailedRepairs += s.FailedRepairs
}

// quantile is the linearly interpolated q-quantile of xs (0 when
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// seedStream derives the per-unit seeds of a run from its --seed.
type seedStream struct{ rng *rand.Rand }

func newSeedStream(seed int64) *seedStream {
	return &seedStream{rng: rand.New(rand.NewSource(seed))}
}

func (s *seedStream) next() int64 { return s.rng.Int63n(1 << 40) }
