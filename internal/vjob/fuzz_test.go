package vjob

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzConfigurationJSON checks that every configuration the decoder
// accepts survives a marshal/unmarshal round trip: the re-encoded form
// parses back to an Equal configuration and re-encodes byte-identically
// (the format is the interchange between cmd/entropyd, cmd/planviz and
// hand-written test fixtures, so silent drift would corrupt runs).
func FuzzConfigurationJSON(f *testing.F) {
	f.Add([]byte(`{"nodes":[],"vms":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":2,"memory":4096}],"vms":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":2,"memory":4096},{"name":"n2","cpu":2,"memory":4096}],` +
		`"vms":[{"name":"vm1","vjob":"j1","cpu":1,"memory":1024,"state":"running","node":"n1"},` +
		`{"name":"vm2","vjob":"j1","cpu":0,"memory":512,"state":"sleeping","node":"n2"},` +
		`{"name":"vm3","cpu":1,"memory":256,"state":"waiting"}]}`))
	f.Add([]byte(`{"nodes":[{"name":"n","cpu":0,"memory":0}],` +
		`"vms":[{"name":"v","cpu":0,"memory":0,"state":"running","node":"n"}]}`))
	f.Add([]byte(`null`))
	// Multi-dimensional seeds: extra kinds ride in "resources"; a
	// zero-valued or absent extras map is the 2-D fast path and must
	// normalize away on re-encode.
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":2,"memory":4096,"resources":{"net":1000,"disk":600}}],` +
		`"vms":[{"name":"vm1","cpu":1,"memory":512,"resources":{"net":250},"state":"running","node":"n1"}]}`))
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":2,"memory":4096,"resources":{"disk":0}}],"vms":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":2,"memory":4096,"resources":{"tape":5}}],"vms":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":2,"memory":4096,"resources":{"cpu":9}}],"vms":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":1,"memory":1,"resources":{"net":-3}}],"vms":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Configuration
		if err := json.Unmarshal(data, &c); err != nil {
			return // rejected input: nothing to round-trip
		}
		first, err := json.Marshal(&c)
		if err != nil {
			t.Fatalf("marshal of accepted configuration failed: %v", err)
		}
		var back Configuration
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("re-parse of own output failed: %v\noutput: %s", err, first)
		}
		if !c.Equal(&back) || !back.Equal(&c) {
			t.Fatalf("round trip changed the configuration:\n%s\nvs\n%s", &c, &back)
		}
		second, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding not stable:\n%s\nvs\n%s", first, second)
		}
		// Structural invariants of every decoded configuration.
		for _, v := range c.VMs() {
			st := c.StateOf(v.Name)
			loc := c.LocationOf(v.Name)
			switch st {
			case Running, Sleeping:
				if c.Node(loc) == nil {
					t.Fatalf("VM %s in state %v placed on unknown node %q", v.Name, st, loc)
				}
			case Waiting:
				if loc != "" {
					t.Fatalf("waiting VM %s holds location %q", v.Name, loc)
				}
			}
		}
		nodes := c.Nodes()
		for i := 1; i < len(nodes); i++ {
			if nodes[i-1].Name >= nodes[i].Name {
				t.Fatalf("nodes not in deterministic order: %q before %q", nodes[i-1].Name, nodes[i].Name)
			}
		}
		// The decoder is the trust boundary of the resource model: no
		// accepted vector may carry a negative dimension (unknown kinds
		// never make it this far — ParseKind rejects the whole input).
		for _, n := range nodes {
			if n.Capacity.AnyNegative() {
				t.Fatalf("node %s decoded with negative capacity %s", n.Name, n.Capacity)
			}
		}
		for _, v := range c.VMs() {
			if v.Demand.AnyNegative() {
				t.Fatalf("VM %s decoded with negative demand %s", v.Name, v.Demand)
			}
		}
	})
}

// Operations decoded by FuzzConfigurationOps, one per three input
// bytes: the op byte picks the operation (op % opCount) and the side
// it acts on ((op / opCount) % 2); the two argument bytes pick names
// or masks.
const (
	opAddNode = iota
	opAddVM
	opSetRunning
	opSetSleeping
	opSetWaiting
	opRemoveVM
	opRemoveNode
	opClone
	opExtractRebase
	opCount
)

var (
	fuzzNodes = []string{"n0", "n1", "n2", "n3"}
	fuzzVMs   = []string{"v0", "v1", "v2", "v3", "v4", "v5"}
)

// bruteGuests is the reference the per-node index must match: the
// VMs in the state whose location is the node, filtered from the
// whole VM set in name order.
func bruteGuests(c *Configuration, node string, s State) []string {
	var out []string
	for _, v := range c.VMs() {
		if c.StateOf(v.Name) == s && c.LocationOf(v.Name) == node {
			out = append(out, v.Name)
		}
	}
	return out
}

func vmNames(vms []*VM) []string {
	var out []string
	for _, v := range vms {
		out = append(out, v.Name)
	}
	return out
}

// checkIndex fails unless RunningOn and SleepingOn agree with the
// brute-force filter on every node name, present or not.
func checkIndex(t *testing.T, step int, label string, c *Configuration) {
	t.Helper()
	for _, n := range fuzzNodes {
		if got, want := vmNames(c.RunningOn(n)), bruteGuests(c, n, Running); !slices.Equal(got, want) {
			t.Fatalf("step %d, %s: RunningOn(%s) = %v, brute force %v", step, label, n, got, want)
		}
		if got, want := vmNames(c.SleepingOn(n)), bruteGuests(c, n, Sleeping); !slices.Equal(got, want) {
			t.Fatalf("step %d, %s: SleepingOn(%s) = %v, brute force %v", step, label, n, got, want)
		}
	}
}

// answers renders every node's index answers, to detect a mutation of
// one configuration showing through in another.
func answers(c *Configuration) string {
	if c == nil {
		return ""
	}
	var b strings.Builder
	for _, n := range fuzzNodes {
		fmt.Fprintf(&b, "%s:%v/%v ", n, vmNames(c.RunningOn(n)), vmNames(c.SleepingOn(n)))
	}
	return b.String()
}

// FuzzConfigurationOps drives a configuration and its clones through
// random mutator sequences and checks the per-node index against a
// brute-force scan of the VM set after every step. A clone shares the
// index slices of its original, so every step also checks that the
// configuration it did not act on still gives the same answers.
func FuzzConfigurationOps(f *testing.F) {
	f.Add([]byte{})
	// Place, move, suspend, wake and remove guests on one side.
	f.Add([]byte{
		opAddNode, 0, 0, opAddNode, 1, 0, opAddVM, 0, 1, opAddVM, 1, 2, opAddVM, 2, 3,
		opSetRunning, 1, 0, opSetRunning, 0, 0, opSetRunning, 2, 1, opSetRunning, 0, 1,
		opSetSleeping, 1, 1, opRemoveNode, 0, 0, opSetWaiting, 1, 0, opRemoveVM, 2, 0,
		opRemoveNode, 1, 0, opRemoveNode, 0, 0,
	})
	// Clone, then mutate each side in turn, including re-adding a
	// running VM and re-adding a node.
	f.Add([]byte{
		opAddNode, 0, 0, opAddNode, 1, 0, opAddNode, 2, 0,
		opAddVM, 0, 0, opAddVM, 1, 0, opAddVM, 2, 0, opAddVM, 3, 0,
		opSetRunning, 0, 0, opSetRunning, 1, 0, opSetSleeping, 2, 1, opSetRunning, 3, 2,
		opClone, 0, 0,
		opSetRunning, 0, 1, opCount + opSetRunning, 1, 2, opCount + opRemoveVM, 2, 0,
		opAddVM, 3, 0, opCount + opAddNode, 0, 0, opSetSleeping, 1, 0,
		opCount + opClone, 0, 0, opCount + opSetWaiting, 0, 0, opRemoveVM, 1, 0,
	})
	// Clone a node holding three guests, then insert a fourth between
	// them and drop one on either side.
	f.Add([]byte{
		opAddNode, 0, 0, opAddNode, 1, 0,
		opAddVM, 0, 0, opAddVM, 1, 0, opAddVM, 2, 0, opAddVM, 3, 0, opAddVM, 4, 0,
		opSetRunning, 0, 0, opSetRunning, 2, 0, opSetRunning, 4, 0, opSetSleeping, 3, 1,
		opClone, 0, 0, opCount + opSetRunning, 1, 0, opSetRunning, 3, 0,
		opCount + opRemoveVM, 2, 0, opSetWaiting, 0, 0, opSetRunning, 2, 1,
	})
	// Extract a partition, change it and rebase it back, on both sides
	// of a clone.
	f.Add([]byte{
		opAddNode, 0, 0, opAddNode, 1, 0, opAddNode, 2, 0, opAddNode, 3, 0,
		opAddVM, 0, 0, opAddVM, 1, 0, opAddVM, 2, 0, opAddVM, 3, 0, opAddVM, 4, 0, opAddVM, 5, 0,
		opSetRunning, 0, 0, opSetRunning, 1, 0, opSetRunning, 2, 1, opSetSleeping, 3, 2, opSetRunning, 4, 3,
		opExtractRebase, 0x03, 0x3f, opClone, 0, 0,
		opExtractRebase, 0x0f, 0xff, opCount + opExtractRebase, 0x06, 0x7f,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfgs := [2]*Configuration{NewConfiguration(), nil}
		for step := 0; step+2 < len(data) && step < 3*256; step += 3 {
			op, a, b := int(data[step]), int(data[step+1]), int(data[step+2])
			side := (op / opCount) % 2
			if cfgs[side] == nil {
				side = 0
			}
			c := cfgs[side]
			node, vm := fuzzNodes[a%len(fuzzNodes)], fuzzVMs[a%len(fuzzVMs)]
			other := answers(cfgs[1-side])

			switch op % opCount {
			case opAddNode:
				c.AddNode(NewNode(node, 1+b%4, 1024*(1+b%4)))
			case opAddVM:
				c.AddVM(NewVM(vm, "j", b%3, 256*(b%5)))
			case opSetRunning, opSetSleeping, opSetWaiting:
				st, at := Waiting, ""
				var err error
				switch op % opCount {
				case opSetRunning:
					st, at = Running, fuzzNodes[b%len(fuzzNodes)]
					err = c.SetRunning(vm, at)
				case opSetSleeping:
					st, at = Sleeping, fuzzNodes[b%len(fuzzNodes)]
					err = c.SetSleeping(vm, at)
				default:
					err = c.SetWaiting(vm)
				}
				if err == nil && (c.StateOf(vm) != st || c.LocationOf(vm) != at) {
					t.Fatalf("step %d: %s is %v@%q after setting %v@%q", step, vm, c.StateOf(vm), c.LocationOf(vm), st, at)
				}
			case opRemoveVM:
				c.RemoveVM(vm)
			case opRemoveNode:
				present := c.Node(node) != nil
				held := len(bruteGuests(c, node, Running))+len(bruteGuests(c, node, Sleeping)) > 0
				if err := c.RemoveNode(node); (err == nil) != (present && !held) {
					t.Fatalf("step %d: RemoveNode(%s) = %v with node present %v, holding guests %v", step, node, err, present, held)
				}
			case opClone:
				cfgs[1-side] = c.Clone()
				other = answers(cfgs[1-side])
				if other != answers(c) {
					t.Fatalf("step %d: clone answers %s, original %s", step, other, answers(c))
				}
			case opExtractRebase:
				extractRebase(t, step, c, a, b)
			}

			if got := answers(cfgs[1-side]); got != other {
				t.Fatalf("step %d: mutating side %d changed side %d:\nbefore %s\nafter  %s", step, side, 1-side, other, got)
			}
			for i, cfg := range cfgs {
				if cfg != nil {
					checkIndex(t, step, fmt.Sprintf("side %d", i), cfg)
				}
			}
		}
	})
}

// extractRebase extracts the nodes of nodeMask and the VMs of vmMask
// that can go with them, changes every extracted VM's state in the
// copy, and rebases the change into c. The extracted configuration
// must not see the changes made to its copy.
func extractRebase(t *testing.T, step int, c *Configuration, nodeMask, vmMask int) {
	t.Helper()
	var nodes, vms []string
	in := map[string]bool{"": true}
	for i, n := range fuzzNodes {
		if nodeMask&(1<<i) != 0 && c.Node(n) != nil {
			nodes = append(nodes, n)
			in[n] = true
		}
	}
	for i, v := range fuzzVMs {
		if vmMask&(1<<i) != 0 && c.VM(v) != nil && in[c.LocationOf(v)] {
			vms = append(vms, v)
		}
	}
	sub, err := c.Extract(nodes, vms)
	if err != nil {
		t.Fatalf("step %d: Extract(%v, %v): %v", step, nodes, vms, err)
	}
	checkIndex(t, step, "extracted", sub)
	before := answers(sub)
	out := sub.Clone()
	for _, v := range vms {
		switch out.StateOf(v) {
		case Running:
			_ = out.SetSleeping(v, out.LocationOf(v))
		case Sleeping:
			_ = out.SetWaiting(v)
		case Waiting:
			if len(nodes) > 0 {
				_ = out.SetRunning(v, nodes[len(nodes)-1])
			}
		}
	}
	if vmMask&0x80 != 0 && len(vms) > 0 {
		out.RemoveVM(vms[0])
	}
	checkIndex(t, step, "rebased copy", out)
	if got := answers(sub); got != before {
		t.Fatalf("step %d: changing the copy changed the extracted configuration:\nbefore %s\nafter  %s", step, before, got)
	}
	if err := c.Rebase(sub, out); err != nil {
		t.Fatalf("step %d: Rebase: %v", step, err)
	}
	for _, v := range vms {
		if c.StateOf(v) != out.StateOf(v) || c.LocationOf(v) != out.LocationOf(v) {
			t.Fatalf("step %d: rebased %s is %v@%q, want %v@%q", step, v,
				c.StateOf(v), c.LocationOf(v), out.StateOf(v), out.LocationOf(v))
		}
	}
}
