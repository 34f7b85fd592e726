package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"cwcs/internal/api"
	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// opsChunk is the virtual time the simulator advances between two
// client turns; readsPerTurn the reads of a turn. No documented
// operator or dashboard cadence exists to copy, so the read rate is
// set for the api layer to be a measurable share of the episode: about
// a fifth of its time on the host the baseline was recorded on, so a
// doubled read path moves run_cpu_s by about 20%, above its
// run-to-run spread.
const (
	opsChunk     = 5.0
	readsPerTurn = 24
)

// runOps drives the control plane over live churn clusters: one
// closed-loop client on the simulator's goroutine alternates request
// turns with fixed virtual-time simulation chunks.
func runOps(e *env, seeds *seedStream) *report {
	return runEpisode(e, seeds, func(e *env, seed int64) (*liveCluster, func(*report)) {
		lc := newLiveCluster(e, e.set.churn, seed)
		return lc, newOpsClient(e, lc, seed+3).drive
	})
}

// opsClient is the closed-loop operator: it sends one request, checks
// the status, then sends the next.
type opsClient struct {
	e       *env
	lc      *liveCluster
	h       http.Handler
	rng     *rand.Rand
	drained string  // node under a drain order, "" when none
	since   float64 // virtual time of that order
	empty   float64 // virtual time it was seen hosting nothing, -1 before
	subs    int
	writes  int
}

// readRoutes are the read endpoints, drawn uniformly by the seeded
// client: no route is known to be polled more than another.
var readRoutes = map[string]string{
	"nodes": "/v1/nodes", "node": "/v1/nodes/", "metrics": "/metrics",
	"config": "/v1/config", "violations": "/v1/violations", "plan": "/v1/plan",
}

var readOrder = []string{"nodes", "node", "metrics", "config", "violations", "plan"}

func newOpsClient(e *env, lc *liveCluster, seed int64) *opsClient {
	cl := &opsClient{e: e, lc: lc, rng: rand.New(rand.NewSource(seed)), empty: -1}
	srv := &api.Server{
		Exec: func(fn func()) {
			t0 := time.Now()
			e.p.span("api.exec", fn)
			e.c.holdMS = append(e.c.holdMS, ms(time.Since(t0)))
		},
		Now:      lc.c.Now,
		Config:   lc.c.Config,
		Stats:    func() core.LoopStats { return lc.loop.Stats },
		Switches: func() int { return len(lc.loop.Records) },
		Execution: func() *drivers.Execution {
			return unwrapExecution(lc.loop.Execution())
		},
		Notify:           func(ev core.Event) { lc.loop.Notify(lc.act, ev) },
		Drains:           lc.drains,
		Submit:           lc.submitSpec,
		Withdraw:         lc.withdraw,
		ViolationSeconds: lc.ledger.Total,
		QueueDepth:       func() int { return len(lc.jobs) },
		Ledger:           lc.ledger,
		Solver:           e.solver,
		Trace:            e.tracer,
	}
	cl.h = srv.Handler()
	// The drain clock: the first advance at which the drained node
	// hosts nothing ends the drain.
	lc.c.OnAdvance(func() {
		if cl.drained == "" || cl.empty >= 0 {
			return
		}
		e.p.span("bench.drain", func() {
			if hosted(lc.cfg, cl.drained) == 0 {
				cl.empty = lc.c.Now()
			}
		})
	})
	return cl
}

// drive runs the episode: client turns and simulation chunks until
// every vjob is done and reaped and no drain is pending.
func (cl *opsClient) drive(r *report) {
	c := cl.lc.c
	for !cl.lc.done() || cl.drained != "" {
		if c.Now() >= cl.lc.prm.Horizon {
			cl.e.o.miss("episode not quiescent at the horizon t=%.0f (drain pending: %q)", c.Now(), cl.drained)
			return
		}
		cl.turn(r)
		// The client's clock: a no-op event at the end of the chunk,
		// so the chunk spans its full virtual length even when the
		// cluster is idle.
		next := c.Now() + opsChunk
		c.Schedule(next, func() {})
		cl.lc.runChunk(next)
	}
}

// turn is one client turn: a write while arrivals last, then reads.
func (cl *opsClient) turn(r *report) {
	if cl.drained != "" && cl.empty >= 0 {
		r.drainVS = append(r.drainVS, cl.empty-cl.since)
		cl.write(r, "undrain", http.MethodPost, "/v1/nodes/"+cl.drained+"/undrain", nil, http.StatusOK)
		cl.drained, cl.empty = "", -1
	}
	if cl.lc.c.Now() < cl.lc.prm.ArrivalStop {
		cl.nextWrite(r)
	}
	for i := 0; i < readsPerTurn; i++ {
		cl.randomRead(r)
	}
}

// nextWrite sends the next write of the fixed write cycle: a drain
// order (an injected load-change event while a drain is in flight), a
// submission, an event, a submission withdrawn at once. The targets
// are drawn from the seeded stream.
func (cl *opsClient) nextWrite(r *report) {
	step := cl.writes % 4
	cl.writes++
	if step == 0 && cl.drained == "" {
		if node := cl.pickDrainable(); node != "" {
			cl.drained, cl.since, cl.empty = node, cl.lc.c.Now(), -1
			cl.write(r, "drain", http.MethodPost, "/v1/nodes/"+node+"/drain", nil, http.StatusAccepted)
			return
		}
	}
	switch step {
	case 1, 3:
		name := fmt.Sprintf("op%05d", cl.subs)
		cl.subs++
		spec := api.VJobSpec{Name: name}
		for i, n := 0, 2+cl.subs%3; i < n; i++ {
			spec.VMs = append(spec.VMs, api.VMSpec{
				Name: fmt.Sprintf("%s-vm%d", name, i), CPU: 1, Memory: 512 << (i % 2),
				Phases: []api.PhaseSpec{{CPU: 1, Seconds: float64(60 + 30*(cl.subs%9))}},
			})
		}
		body, _ := json.Marshal(spec) // strings and finite numbers: cannot fail
		cl.write(r, "submit", http.MethodPost, "/v1/vjobs", body, http.StatusAccepted)
		if step == 3 {
			// Withdrawn before the loop places it: the vjob still waits,
			// so this succeeds.
			cl.write(r, "withdraw", http.MethodDelete, "/v1/vjobs/"+name, nil, http.StatusOK)
		}
	default:
		vms := cl.lc.cfg.InState(vjob.Running)
		if len(vms) == 0 {
			return
		}
		ev := []map[string]any{{"kind": core.LoadChange.String(), "vms": []string{vms[cl.rng.Intn(len(vms))].Name}}}
		body, _ := json.Marshal(ev) // strings only: cannot fail
		cl.write(r, "events", http.MethodPost, "/v1/events", body, http.StatusAccepted)
	}
}

func (cl *opsClient) randomRead(r *report) {
	route := readOrder[cl.rng.Intn(len(readOrder))]
	path := readRoutes[route]
	if route == "node" {
		nodes := cl.lc.cfg.Nodes()
		path += nodes[cl.rng.Intn(len(nodes))].Name
	}
	rec, d := cl.do(route, http.MethodGet, path, nil)
	r.readMS = append(r.readMS, d)
	r.readBytes += int64(rec.Body.Len())
	cl.e.o.op(rec.Code == http.StatusOK, "GET %s: status %d", path, rec.Code)
}

func (cl *opsClient) write(r *report, route, method, path string, body []byte, want int) {
	rec, d := cl.do(route, method, path, body)
	r.writeMS = append(r.writeMS, d)
	cl.e.o.op(rec.Code == want, "%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body.String())
}

// do serves one request in-process and returns the recorder and the
// latency in ms.
func (cl *opsClient) do(route, method, path string, body []byte) (*httptest.ResponseRecorder, float64) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	cl.e.p.span("api."+route, func() { cl.h.ServeHTTP(rec, req) })
	d := ms(time.Since(t0))
	cl.e.c.routeMS[route] = append(cl.e.c.routeMS[route], d)
	return rec, d
}

// pickDrainable draws a node that runs VMs and holds no suspended
// image (an image pins its node until the vjob resumes).
func (cl *opsClient) pickDrainable() string {
	cfg := cl.lc.cfg
	running := map[string]bool{}
	pinned := map[string]bool{}
	for _, v := range cfg.VMs() {
		switch cfg.StateOf(v.Name) {
		case vjob.Running:
			running[cfg.HostOf(v.Name)] = true
		case vjob.Sleeping:
			pinned[cfg.ImageHostOf(v.Name)] = true
		}
	}
	var cands []string
	for n := range running {
		if !pinned[n] {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		return ""
	}
	sort.Strings(cands)
	return cands[cl.rng.Intn(len(cands))]
}

// hosted counts the VMs running on or imaged at node.
func hosted(cfg *vjob.Configuration, node string) int {
	n := 0
	for _, v := range cfg.VMs() {
		if cfg.LocationOf(v.Name) == node {
			n++
		}
	}
	return n
}

// submitSpec installs a vjob submitted through POST /v1/vjobs.
func (lc *liveCluster) submitSpec(spec api.VJobSpec) error {
	for _, j := range lc.jobs {
		if j.Name == spec.Name {
			return fmt.Errorf("vjob %s already exists", spec.Name)
		}
	}
	vms := make([]*vjob.VM, 0, len(spec.VMs))
	for _, v := range spec.VMs {
		if lc.cfg.VM(v.Name) != nil {
			return fmt.Errorf("VM %s already exists", v.Name)
		}
		vms = append(vms, vjob.NewVM(v.Name, spec.Name, v.CPU, v.Memory))
	}
	job := vjob.NewVJob(spec.Name, len(lc.jobs), vms...)
	job.Submitted = lc.c.Now()
	for i, v := range vms {
		lc.cfg.AddVM(v)
		var phases []sim.Phase
		for _, p := range spec.VMs[i].Phases {
			phases = append(phases, sim.Phase{CPU: p.CPU, Seconds: p.Seconds})
		}
		lc.c.SetWorkload(v.Name, phases)
	}
	lc.jobs = append(lc.jobs, job)
	lc.arrival[job.Name] = job.Submitted
	lc.notifyArrival(job)
	return nil
}

// withdraw removes a vjob that is still waiting.
func (lc *liveCluster) withdraw(name string) error {
	for i, j := range lc.jobs {
		if j.Name != name {
			continue
		}
		names := make([]string, 0, len(j.VMs))
		for _, v := range j.VMs {
			if lc.cfg.VM(v.Name) != nil && lc.cfg.StateOf(v.Name) != vjob.Waiting {
				return fmt.Errorf("vjob %s is already placed; let it finish", name)
			}
			names = append(names, v.Name)
		}
		for _, n := range names {
			lc.cfg.RemoveVM(n)
		}
		lc.jobs = append(lc.jobs[:i], lc.jobs[i+1:]...)
		delete(lc.arrival, name)
		lc.loop.Notify(lc.act, core.Event{Kind: core.VMDeparture, At: lc.c.Now(), VMs: names})
		return nil
	}
	return fmt.Errorf("unknown vjob %s", name)
}
