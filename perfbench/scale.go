package main

import (
	"fmt"
	"math/rand"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/packing"
	"cwcs/internal/plan"
	"cwcs/internal/sched"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// scaleProbe times single layer calls on synthetic configurations of
// growing size (1.5 VMs per node): the state-query sweep, a clone and
// a violation scan at 500 / 2000 / 10000 nodes; plan build, plan
// validation and the partitioner's split at 500 / 1000 / 2000 nodes,
// on the §5.1 context switch at that size. A cell whose time,
// predicted from the next smaller size assuming cubic growth, exceeds
// cellLimit is skipped and reported as -1; its size stays in the
// table.
func scaleProbe(cellLimit time.Duration) map[string]metric {
	m := map[string]metric{}
	cell := func(name string, n, prevN int, fn func()) {
		key := fmt.Sprintf("%s.n%d", name, n)
		if prev, ok := m[fmt.Sprintf("%s.n%d", name, prevN)]; ok && prevN > 0 {
			growth := float64(n) / float64(prevN)
			if prev.Value < 0 || time.Duration(prev.Value*growth*growth*growth*1e6) > cellLimit {
				fmt.Printf("scale probe: %s skipped (predicted over %s)\n", key, cellLimit)
				m[key] = metric{-1, "ms"}
				return
			}
		}
		t0 := time.Now()
		fn()
		m[key] = metric{ms(time.Since(t0)), "ms"}
	}
	prev := 0
	for _, n := range []int{500, 2000, 10000} {
		src := scaleConfig(n)
		cell("vjob.sweep_ms", n, prev, func() { sweep(src) })
		cell("vjob.clone_ms", n, prev, func() { src.Clone() })
		cell("vjob.violations_ms", n, prev, func() { src.Violations() })
		prev = n
	}
	prev = 0
	for _, n := range []int{500, 1000, 2000} {
		src, target, dst := scaleSwitch(n)
		cell("plan.build_ms", n, prev, func() {
			if _, err := plan.Build(src, dst); err != nil {
				panic(fmt.Sprintf("scale probe: plan.Build at %d nodes: %v", n, err))
			}
		})
		// Validate's input is the same graph's plan without the
		// resume-grouping pass, which is most of Build's time, so the
		// cell runs even where the build cell is skipped.
		g, err := plan.BuildGraph(src, dst)
		var p *plan.Plan
		if err == nil {
			p, err = plan.Builder{DisableVJobGrouping: true}.Plan(g)
		}
		if err != nil {
			panic(fmt.Sprintf("scale probe: plan at %d nodes: %v", n, err))
		}
		cell("plan.validate_ms", n, prev, func() {
			if err := p.Validate(); err != nil {
				panic(fmt.Sprintf("scale probe: plan.Validate at %d nodes: %v", n, err))
			}
		})
		cell("core.split_ms", n, prev, func() {
			if _, err := (core.Partitioner{}).Split(core.Problem{Src: src, Target: target}); err != nil {
				panic(fmt.Sprintf("scale probe: split at %d nodes: %v", n, err))
			}
		})
		prev = n
	}
	return m
}

// scaleSwitch is the §5.1 context switch on n nodes (2 CPUs, 4 GiB)
// with 1.5 VMs per node: a generated configuration of running,
// sleeping and waiting vjobs, the consolidation policy's target, and
// the First-Fit-Decrease destination core.FFDPlan plans towards. FFD
// ignores where VMs run now, so nearly every VM moves or resumes
// elsewhere: the plan takes several pools, and grouping each vjob's
// resumes re-validates it once per vjob.
func scaleSwitch(n int) (src *vjob.Configuration, target map[string]vjob.State, dst *vjob.Configuration) {
	g := workload.GenerateConfiguration(rand.New(rand.NewSource(int64(n))), workload.GenerateOptions{
		Nodes: n, NodeCPU: 2, NodeMemory: 4096, VMs: n * 3 / 2,
	})
	src = g.Cfg
	target = sched.Consolidation{}.Decide(src, g.Jobs)
	dst = src.Clone()
	scratch := vjob.NewConfiguration()
	for _, node := range src.Nodes() {
		scratch.AddNode(node)
	}
	var runners []*vjob.VM
	for _, v := range src.VMs() {
		cur := src.StateOf(v.Name)
		want, ok := target[v.VJob]
		if !ok {
			want = cur
		}
		switch {
		case want == vjob.Running:
			runners = append(runners, v)
			scratch.AddVM(v)
		case want == vjob.Sleeping && cur == vjob.Running:
			if err := dst.SetSleeping(v.Name, src.HostOf(v.Name)); err != nil {
				panic(err)
			}
		case want == vjob.Terminated:
			dst.RemoveVM(v.Name)
		}
	}
	if err := packing.FirstFitDecrease(scratch, runners); err != nil {
		panic(fmt.Sprintf("scale probe: FFD at %d nodes: %v", n, err))
	}
	for _, v := range runners {
		if err := dst.SetRunning(v.Name, scratch.HostOf(v.Name)); err != nil {
			panic(err)
		}
	}
	return src, target, dst
}

// scaleConfig builds n nodes (2 CPUs, 4 GiB) where even nodes run two
// VMs and odd nodes one, in vjobs of nine VMs; the node order is
// shuffled by a fixed seed so placements are not name-aligned.
func scaleConfig(n int) *vjob.Configuration {
	cfg := vjob.NewConfiguration()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node%05d", i)
		cfg.AddNode(vjob.NewNode(names[i], 2, 4096))
	}
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { names[i], names[j] = names[j], names[i] })
	k := 0
	for i, node := range names {
		for g := 0; g < 1+(i+1)%2; g++ {
			job := fmt.Sprintf("job%05d", k/9)
			vm := fmt.Sprintf("vm%06d", k)
			cfg.AddVM(vjob.NewVM(vm, job, 1, 1024))
			if err := cfg.SetRunning(vm, node); err != nil {
				panic(err)
			}
			k++
		}
	}
	return cfg
}
