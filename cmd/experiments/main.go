// Command experiments regenerates the tables and figures of the
// paper's evaluation. Each subcommand prints the rows/series of one
// table or figure:
//
//	experiments fig1              backfilling schematic (FCFS / EASY / EASY+preemption)
//	experiments table1            action cost model
//	experiments fig3              action durations vs VM memory
//	experiments fig10 [-quick]    FFD vs Entropy reconfiguration costs (200 nodes)
//	experiments fig11 [-quick]    cost & duration of the cluster run's context switches
//	experiments fig12 [-quick]    allocation diagram under static FCFS
//	experiments fig13 [-quick]    utilization & completion, Entropy vs FCFS
//	experiments partition [-quick] partitioned vs monolithic solve scaling
//	experiments churn [-quick]    periodic vs event-driven loop under churn
//	experiments repairstorm [-quick]  repair widening off/on under failure storms
//	experiments drain [-quick]    drain/evacuate a node fraction under churn
//	experiments multires [-quick] CPU-only vs multi-dimensional packing
//	experiments migration [-quick] transfer-blind vs bandwidth-aware planner
//	experiments chaos [-quick]    fault-injection cells + trace replay, recovery distributions
//	experiments all  [-quick]     everything above
//
// -quick shrinks sample counts, solver budgets and workload durations
// so the full set completes in seconds; without it the fig10 sweep
// uses the paper's 30 samples × 40 s budget and runs for hours.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cwcs/internal/experiments"
	"cwcs/internal/monitor"
	"cwcs/internal/obs"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	// The CLI is subcommand-first, so -version must be caught before
	// subcommand dispatch rejects it as an unknown command.
	if cmd == "version" || cmd == "-version" || cmd == "--version" {
		info := obs.BuildInfo()
		fmt.Printf("experiments %s %s\n", info.Version, info.GoVersion)
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced samples/budgets for a fast run")
	seed := fs.Int64("seed", 42, "workload seed")
	// Defaults to sequential: the portfolio race's outcome depends on
	// goroutine timing, and the published figures must reproduce from a
	// seed alone. Opt in with -workers N (or 0 for GOMAXPROCS).
	workers := fs.Int("workers", 1, "parallel portfolio workers per optimization (1 = sequential/reproducible, 0 = GOMAXPROCS)")
	// -1 = per-command default: the paper figures stay on the
	// monolithic model they were published with (1); the partition
	// study's partitioned side defaults to auto (0).
	partitions := fs.Int("partitions", -1, "cluster partitions solved concurrently (0 = auto, 1 = monolithic)")
	csvDir := fs.String("csv", "", "also write <figure>.csv files into this directory")
	traceName := fs.String("trace", "web-tide", "committed sample trace the chaos replay cell feeds the loop")
	scenarios := fs.String("scenario", "", "comma-separated chaos cells to run (default: all; see experiments chaos -quick)")
	traceOut := fs.String("trace-out", "", "write the span stream of churn/chaos runs to this JSONL file (load with /v1/trace tooling or Perfetto)")
	_ = fs.Parse(os.Args[2:])
	figParts := *partitions
	if figParts < 0 {
		figParts = 1
	}
	studyParts := *partitions
	if studyParts < 0 {
		studyParts = 0
	}

	switch cmd {
	case "fig1":
		fmt.Print(experiments.Fig1())
	case "table1":
		fmt.Print(experiments.Table1(1024))
	case "fig3":
		rows := experiments.Fig3(512, 1024, 2048)
		fmt.Print(experiments.Fig3Table(rows))
		writeCSV(*csvDir, "fig3.csv", experiments.Fig3CSV(rows))
	case "fig10":
		rows := experiments.Fig10(fig10Options(*quick, *seed, *workers, figParts))
		fmt.Print(experiments.Fig10Table(rows))
		writeCSV(*csvDir, "fig10.csv", experiments.Fig10CSV(rows))
	case "fig11":
		_, ent := clusterRuns(*quick, *seed, *workers, figParts, false)
		fmt.Print(experiments.Fig11Table(ent))
		writeCSV(*csvDir, "fig11.csv", experiments.Fig11CSV(ent))
	case "fig12":
		fcfs, _ := clusterRuns(*quick, *seed, *workers, figParts, true)
		fmt.Println("Figure 12 — allocation diagram, static FCFS scheduler")
		fmt.Print(fcfs.Gantt.Render(72))
	case "fig13":
		fcfs, ent := clusterRuns(*quick, *seed, *workers, figParts, false)
		fmt.Print(experiments.Fig13Table(fcfs, ent))
		writeCSV(*csvDir, "fig13.csv", experiments.Fig13CSV(fcfs, ent))
	case "partition":
		rows := experiments.PartitionStudy(partitionOptions(*quick, *seed, *workers, studyParts))
		fmt.Print(experiments.PartitionTable(rows))
		writeCSV(*csvDir, "partition.csv", experiments.PartitionCSV(rows))
	case "churn":
		co := churnOptions(*quick, *seed, *workers, studyParts)
		co.CollectSpans = *traceOut != ""
		rows := experiments.ChurnStudy(co)
		fmt.Print(experiments.ChurnTable(rows))
		for _, r := range rows {
			printAttribution(r.Mode, r.Ledger)
		}
		writeCSV(*csvDir, "churn.csv", experiments.ChurnCSV(rows))
		var spans []obs.SpanRecord
		for _, r := range rows {
			spans = append(spans, r.Spans...)
		}
		writeTrace(*traceOut, spans)
	case "repairstorm":
		rows := experiments.RepairStormStudy(repairStormOptions(*quick, *seed, *workers, studyParts))
		fmt.Print(experiments.RepairStormTable(rows))
		writeCSV(*csvDir, "repairstorm.csv", experiments.RepairStormCSV(rows))
	case "drain":
		r := experiments.RunDrain(drainOptions(*quick, *seed, *workers, studyParts))
		fmt.Print(experiments.DrainTable(r))
		writeCSV(*csvDir, "drain.csv", experiments.DrainCSV(r))
	case "multires":
		r := experiments.RunMultiRes(multiresOptions(*quick, *seed, *workers, studyParts))
		fmt.Print(experiments.MultiResTable(r))
		writeCSV(*csvDir, "multires.csv", experiments.MultiResCSV(r))
	case "migration":
		r := experiments.RunMigration(migrationOptions(*quick, *seed, *workers, studyParts))
		fmt.Print(experiments.MigrationTable(r))
		writeCSV(*csvDir, "migration.csv", experiments.MigrationCSV(r))
	case "chaos":
		co := chaosOptions(*quick, *seed, *workers, studyParts, *traceName)
		co.CollectSpans = *traceOut != ""
		if *scenarios != "" {
			co.Scenarios = strings.Split(*scenarios, ",")
			for _, s := range co.Scenarios {
				if !knownScenario(s) {
					fmt.Fprintf(os.Stderr, "experiments: unknown chaos scenario %q (have %s)\n",
						s, strings.Join(experiments.ChaosScenarios(), ", "))
					os.Exit(2)
				}
			}
		}
		rows := experiments.ChaosStudy(co)
		fmt.Print(experiments.ChaosTable(rows))
		for _, r := range rows {
			printAttribution(r.Scenario, r.Ledger)
		}
		writeCSV(*csvDir, "chaos.csv", experiments.ChaosCSV(rows))
		var spans []obs.SpanRecord
		for _, r := range rows {
			spans = append(spans, r.Spans...)
		}
		writeTrace(*traceOut, spans)
	case "all":
		fmt.Print(experiments.Fig1())
		fmt.Println()
		fmt.Print(experiments.Table1(1024))
		fmt.Println()
		fmt.Print(experiments.Fig3Table(experiments.Fig3(512, 1024, 2048)))
		fmt.Println()
		fmt.Print(experiments.Fig10Table(experiments.Fig10(fig10Options(*quick, *seed, *workers, figParts))))
		fmt.Println()
		fcfs, ent := clusterRuns(*quick, *seed, *workers, figParts, false)
		fmt.Print(experiments.Fig11Table(ent))
		fmt.Println()
		fmt.Println("Figure 12 — allocation diagram, static FCFS scheduler")
		fmt.Print(fcfs.Gantt.Render(72))
		fmt.Println()
		fmt.Print(experiments.Fig13Table(fcfs, ent))
		fmt.Println()
		fmt.Print(experiments.PartitionTable(experiments.PartitionStudy(partitionOptions(*quick, *seed, *workers, studyParts))))
		fmt.Println()
		fmt.Print(experiments.ChurnTable(experiments.ChurnStudy(churnOptions(*quick, *seed, *workers, studyParts))))
		fmt.Println()
		fmt.Print(experiments.RepairStormTable(experiments.RepairStormStudy(repairStormOptions(*quick, *seed, *workers, studyParts))))
		fmt.Println()
		fmt.Print(experiments.DrainTable(experiments.RunDrain(drainOptions(*quick, *seed, *workers, studyParts))))
		fmt.Println()
		fmt.Print(experiments.MultiResTable(experiments.RunMultiRes(multiresOptions(*quick, *seed, *workers, studyParts))))
		fmt.Println()
		fmt.Print(experiments.MigrationTable(experiments.RunMigration(migrationOptions(*quick, *seed, *workers, studyParts))))
		fmt.Println()
		fmt.Print(experiments.ChaosTable(experiments.ChaosStudy(chaosOptions(*quick, *seed, *workers, studyParts, *traceName))))
	default:
		usage()
		os.Exit(2)
	}
}

func fig10Options(quick bool, seed int64, workers, partitions int) experiments.Fig10Options {
	o := experiments.DefaultFig10Options()
	o.Seed = seed
	o.Workers = workers
	o.Partitions = partitions
	if quick {
		o.VMCounts = []int{54, 108, 162, 216}
		o.Samples = 3
		o.Timeout = 2 * time.Second
	}
	return o
}

// partitionOptions shapes the partitioned-vs-monolithic scaling sweep.
func partitionOptions(quick bool, seed int64, workers, partitions int) experiments.PartitionOptions {
	o := experiments.DefaultPartitionOptions()
	o.Seed = seed
	o.Workers = workers
	o.Partitions = partitions
	if quick {
		o.NodeCounts = []int{50, 100, 200}
		o.Timeout = 500 * time.Millisecond
	}
	return o
}

// churnOptions shapes the periodic-vs-event-driven loop study.
func churnOptions(quick bool, seed int64, workers, partitions int) experiments.ChurnOptions {
	o := experiments.DefaultChurnOptions()
	o.Seed = seed
	o.Workers = workers
	o.Partitions = partitions
	if quick {
		o.Nodes = 64
		o.InitialVJobs = 6
		o.VMsPerVJob = 4
		o.ArrivalStop = 200
		o.WorkScale = 0.2
		o.Horizon = 2000
		o.Timeout = 100 * time.Millisecond
	}
	return o
}

// repairStormOptions shapes the repair-widening failure-storm study.
func repairStormOptions(quick bool, seed int64, workers, partitions int) experiments.RepairStormOptions {
	o := experiments.DefaultRepairStormOptions()
	o.Churn.Seed = seed
	o.Churn.Workers = workers
	o.Churn.Partitions = partitions
	if quick {
		co := churnOptions(true, seed, workers, partitions)
		co.WatchInvariants = true
		o.Churn = co
		o.Rates = []float64{0.10}
	}
	return o
}

// drainOptions shapes the node-maintenance evacuation study.
func drainOptions(quick bool, seed int64, workers, partitions int) experiments.DrainOptions {
	o := experiments.DefaultDrainOptions()
	o.Seed = seed
	o.Workers = workers
	o.Partitions = partitions
	if quick {
		o.Nodes = 64
		o.InitialVJobs = 6
		o.VMsPerVJob = 4
		o.ArrivalStop = 200
		o.DrainAt = 200
		o.WorkScale = 0.2
		o.Horizon = 2000
		o.Timeout = 100 * time.Millisecond
	}
	return o
}

// multiresOptions shapes the multi-dimensional packing study.
func multiresOptions(quick bool, seed int64, workers, partitions int) experiments.MultiResOptions {
	o := experiments.DefaultMultiResOptions()
	o.Seed = seed
	o.Workers = workers
	o.Partitions = partitions
	if quick {
		o.Nodes = 48
		o.Timeout = 500 * time.Millisecond
	}
	return o
}

// migrationOptions shapes the bandwidth-aware context-switch study.
func migrationOptions(quick bool, seed int64, workers, partitions int) experiments.MigrationOptions {
	o := experiments.DefaultMigrationOptions()
	o.Seed = seed
	o.Workers = workers
	o.Partitions = partitions
	if quick {
		o.Nodes = 48
		o.Racks = 2
		o.Timeout = 250 * time.Millisecond
	}
	return o
}

// chaosOptions shapes the fault-injection study. Quick shrinks the
// cluster and opens every chaos window right after the arrival wave,
// so each cell perturbs a workload that is still live.
func chaosOptions(quick bool, seed int64, workers, partitions int, traceName string) experiments.ChaosOptions {
	o := experiments.DefaultChaosOptions()
	o.Churn.Seed = seed
	o.Churn.Workers = workers
	o.Churn.Partitions = partitions
	o.Trace = traceName
	if quick {
		o.Churn.Nodes = 48
		o.Churn.NodeCPU = 2
		o.Churn.NodeMemory = 4096
		o.Churn.InitialVJobs = 5
		o.Churn.VMsPerVJob = 4
		o.Churn.ArrivalRate = 1.0 / 40
		o.Churn.ArrivalStop = 300
		o.Churn.WorkScale = 0.2
		o.Churn.Horizon = 2400
		o.Churn.Debounce = 5
		o.Churn.Timeout = 100 * time.Millisecond
		o.Racks, o.Bursts, o.BurstFrom, o.BurstUntil, o.Outage = 8, 2, 100, 600, 150
		o.Flappers, o.FlapFrom, o.FlapUntil, o.MeanDown, o.MeanUp = 4, 100, 600, 20, 60
		o.Loss = sim.EventLoss{Fraction: 0.5, From: 60, Until: 600}
		o.StormRate, o.StormFrom, o.StormUntil = 0.25, 60, 400
		o.ResyncInterval = 40
	}
	return o
}

func knownScenario(name string) bool {
	for _, s := range experiments.ChaosScenarios() {
		if s == name {
			return true
		}
	}
	return false
}

// clusterRuns executes the §5.2 experiment under both decision
// modules. fcfsOnly skips the Entropy run (for fig12).
func clusterRuns(quick bool, seed int64, workers, partitions int, fcfsOnly bool) (fcfs, entropy experiments.ClusterResult) {
	opts := experiments.DefaultClusterOptions()
	opts.Seed = seed
	opts.Workers = workers
	opts.Partitions = partitions
	if quick {
		opts.WorkScale = 0.5
		opts.Timeout = time.Second
	}
	fopts := opts
	fopts.PinRunning = true // a static RMS never migrates
	fcfs = experiments.RunCluster(sched.StaticFCFS{ReserveFullCPU: true}, fopts)
	if !fcfsOnly {
		entropy = experiments.RunCluster(sched.Consolidation{}, opts)
	}
	return fcfs, entropy
}

// writeTrace stores the collected span stream as JSONL when
// -trace-out was given.
func writeTrace(path string, spans []obs.SpanRecord) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if err := obs.WriteJSONL(f, spans); err == nil {
		err = f.Close()
	} else {
		_ = f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d spans)\n", path, len(spans))
}

// printAttribution is the CLI mirror of GET /v1/violations: one line
// per study row naming who absorbed the violation exposure. Silent
// for clean runs.
func printAttribution(label string, led *monitor.Ledger) {
	if led == nil || led.Total() == 0 {
		return
	}
	fmt.Printf("%-13s top violators:", label)
	for _, s := range led.TopVJobs(3) {
		fmt.Printf(" vjob %s=%.0fs", s.VJob, s.Seconds)
	}
	for _, s := range led.TopNodes(3) {
		fmt.Printf(" node %s=%.0fs", s.Node, s.Seconds)
	}
	if rb := led.RuleBreachSeconds(); rb > 0 {
		fmt.Printf(" rule-breach=%.0fs", rb)
	}
	fmt.Println()
}

// writeCSV stores content under dir when -csv was given.
func writeCSV(dir, name, content string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	path := dir + string(os.PathSeparator) + name
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: experiments <fig1|table1|fig3|fig10|fig11|fig12|fig13|partition|churn|repairstorm|drain|multires|migration|chaos|all|version> [-quick] [-seed N] [-workers N] [-partitions N] [-trace NAME] [-scenario a,b] [-csv DIR] [-trace-out FILE]`)
}
