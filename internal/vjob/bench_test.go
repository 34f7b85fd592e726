package vjob_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cwcs/internal/workload"
)

// BenchmarkRunningOnSweep times one RunningOn call per node — the
// simulator's per-advance rate sweep — over a generated §5.1 cluster
// at 1.5 VMs per node. One op is one full sweep; with the per-node
// index its cost grows linearly with the cluster.
func BenchmarkRunningOnSweep(b *testing.B) {
	for _, n := range []int{500, 2000, 10000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			cfg := workload.GenerateConfiguration(rand.New(rand.NewSource(int64(n))), workload.GenerateOptions{
				Nodes: n, NodeCPU: 2, NodeMemory: 4096, VMs: n * 3 / 2,
			}).Cfg
			nodes := cfg.Nodes()
			for b.Loop() {
				for _, node := range nodes {
					cfg.RunningOn(node.Name)
				}
			}
		})
	}
}
