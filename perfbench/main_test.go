package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// tiny is a miniature of the published settings: small enough that
// every solve proves optimality well inside its budget, so seeded runs
// are deterministic, and every scale-probe cell past the smallest size
// is skipped.
func tiny() settings {
	return settings{
		churn: churnParams{
			Nodes: 24, NodeCPU: 2, NodeMemory: 4096,
			InitialVJobs: 3, VMsPerVJob: 3,
			ArrivalRate: 1.0 / 40, ArrivalStop: 120,
			Horizon: 6000, Debounce: 5,
			Budget:      10 * time.Second,
			FailureRate: 0.02,
		},
		sw: switchParams{
			Nodes: 20, NodeCPU: 2, NodeMemory: 4096,
			VMCounts: []int{9, 18},
			Budget:   100 * time.Millisecond,
		},
	}
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSpecNames(t *testing.T) {
	s := readSpec(t)
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command implements %d", len(s.Workloads), len(workloads))
	}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _ . -", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// checkPrinted compares the metrics a run printed with a spec list,
// name by name and unit by unit.
func checkPrinted(t *testing.T, what string, got map[string]metric, want []specMetric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	var missing, extra []string
	for name, unit := range units {
		m, ok := got[name]
		switch {
		case !ok:
			missing = append(missing, name)
		case m.Unit != unit:
			t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if !nameRE.MatchString(name) {
			t.Errorf("%s: printed metric name %q is malformed", what, name)
		}
		if _, ok := units[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		t.Errorf("%s: not printed %v; not in BENCHMARK.json %v", what, missing, extra)
	}
}

// TestPrintedMetricsMatchSpec runs every workload in both modes on the
// miniature and checks that the printed names and units are exactly
// those of BENCHMARK.json. peak_rss_mib is measured by run.py from
// outside the process, so the Go side never prints it.
func TestPrintedMetricsMatchSpec(t *testing.T) {
	s := readSpec(t)
	for name, run := range workloads {
		e := newEnv(false, tiny())
		res := endToEnd(run(e, newSeedStream(1)), e)
		if !res.Correct {
			t.Fatalf("%s: oracle misses: %v", name, e.o.misses)
		}
		res.Metrics["peak_rss_mib"] = metric{1, "MiB"}
		checkPrinted(t, name+" --trace 0", res.Metrics, s.EndToEnd)

		tr := traced(name, run, 1, t.TempDir(), tiny())
		if !tr.Correct {
			t.Fatalf("%s traced: oracle failed", name)
		}
		checkPrinted(t, name+" --trace 1", tr.Metrics, s.PerLayer)
	}
}

// fingerprint renders the virtual outcomes of a run: everything the
// simulated cluster experienced, nothing measured on the wall clock.
func fingerprint(r *report) string {
	return fmt.Sprintf("viol=%v turnaround=%v costs=%v recovery=%v drains=%v stats=%+v",
		r.viol, r.turnaround, r.costs, r.reactVS, r.drainVS, r.stats)
}

// TestTracedRunIsPassThrough replays one seed of each workload untraced
// and traced: the timing wrappers, the span tracer and the solver
// telemetry must leave every virtual outcome byte-identical.
func TestTracedRunIsPassThrough(t *testing.T) {
	for name, run := range workloads {
		plain := fingerprint(run(newEnv(false, tiny()), newSeedStream(7)))
		tracedFP := fingerprint(run(newEnv(true, tiny()), newSeedStream(7)))
		if plain != tracedFP {
			t.Errorf("%s: traced run diverged\nuntraced: %s\ntraced:   %s", name, plain, tracedFP)
		}
	}
}
