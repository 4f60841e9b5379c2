// Command ftclab regenerates the paper's evaluation (§7): every table and
// figure, plus the design-choice ablations, printed as aligned text tables
// with the paper's reference numbers in the notes.
//
// Usage:
//
//	ftclab [-quick] [-runtime 1s] [experiment ...]
//	ftclab -chaos-seed N
//	ftclab -fleet scenario.yaml [-trace]
//
// Experiments: table1 table2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// fig13 failover ablate. With no arguments, all experiments run in order.
// failover crashes a replica, kills the orchestrator-ensemble leader at
// each replicated recovery phase, and reports how the successor resumed
// the in-flight recovery (DESIGN.md §14).
//
// -chaos-seed replays one deterministic fault-injection campaign (the same
// schedule `go test ./internal/chaos -chaos.seed=N` runs) with the event
// trace on stderr, and exits 1 if any invariant is violated — the debugging
// entry point for a seed that failed in CI.
//
// -fleet replays a multi-chain scenario file (see scenarios/) through the
// chain broker: chains arrive, pass admission control against the shared
// server pool, carry steered traffic, survive scheduled server crashes, and
// are reclaimed on TTL expiry. The fleet tables print on stdout; the exit
// code is 1 if the run reports any violation (wedged chains, divergent
// stores, unrestored replicas, SLA or downtime overruns). -trace streams
// the broker's event log to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/ftsfc/ftc/internal/chaos"
	"github.com/ftsfc/ftc/internal/exp"
	"github.com/ftsfc/ftc/internal/fleet"
)

func main() {
	quickFlag := flag.Bool("quick", false, "short measurement windows (smoke run)")
	runTime := flag.Duration("runtime", time.Second, "measurement window per data point")
	flows := flag.Int("flows", 128, "generator flows")
	chaosSeed := flag.Int64("chaos-seed", 0, "replay this chaos campaign seed with a verbose trace and exit")
	fleetPath := flag.String("fleet", "", "replay this fleet scenario YAML through the chain broker and exit")
	traceFlag := flag.Bool("trace", false, "with -fleet: stream the broker event log to stderr")
	flag.Parse()

	if *chaosSeed != 0 {
		os.Exit(replayChaos(*chaosSeed))
	}
	if *fleetPath != "" {
		os.Exit(replayFleet(*fleetPath, *traceFlag))
	}

	p := exp.Params{RunTime: *runTime, Flows: *flows}
	if *quickFlag {
		p.RunTime = 150 * time.Millisecond
		p.Samples = 5
	}

	wanted := flag.Args()
	if len(wanted) == 0 {
		wanted = []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8",
			"fig9", "fig10", "fig11", "fig12", "fig13", "failover", "ablate"}
	}
	exitCode := 0
	for _, name := range wanted {
		if err := run(strings.ToLower(name), p); err != nil {
			fmt.Fprintf(os.Stderr, "ftclab: %s: %v\n", name, err)
			exitCode = 1
		}
	}
	os.Exit(exitCode)
}

// replayChaos derives and runs the campaign for one seed, tracing every
// scheduled event to stderr, and returns the process exit code.
func replayChaos(seed int64) int {
	c := chaos.Derive(seed)
	if err := c.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ftclab: seed %d derived an invalid schedule: %v\n", seed, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "chaos: replaying seed %d: f=%d engine=%s chain=%d flows=%d packets=%d episodes=%d linkfaults=%d\n",
		seed, c.F, c.Engine, c.ChainLen, c.Flows, c.Packets, len(c.Episodes), len(c.LinkFaults))
	res := chaos.Run(c, chaos.Options{Trace: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "chaos: "+format+"\n", args...)
	}})
	fmt.Println(res.OneLine())
	if res.Failed() {
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "ftclab: seed %d: %s\n", seed, v)
		}
		return 1
	}
	return 0
}

// replayFleet runs one scenario file through the chain broker, prints the
// fleet tables, and returns the process exit code (1 on any violation).
func replayFleet(path string, trace bool) int {
	scn, err := fleet.LoadScenario(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftclab: fleet: %v\n", err)
		return 1
	}
	opt := fleet.Options{}
	if trace {
		opt.Trace = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "fleet: "+format+"\n", args...)
		}
	}
	rep, err := fleet.Run(scn, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftclab: fleet: %v\n", err)
		return 1
	}
	for _, t := range exp.FleetTables(rep) {
		fmt.Println(t)
	}
	if v := rep.Violations(); len(v) > 0 {
		for _, msg := range v {
			fmt.Fprintf(os.Stderr, "ftclab: fleet: VIOLATION: %s\n", msg)
		}
		return 1
	}
	return 0
}

func run(name string, p exp.Params) error {
	show := func(t *exp.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	}
	switch name {
	case "table1":
		return show(exp.Table1(), nil)
	case "table2":
		return show(exp.Table2(p))
	case "fig5":
		return show(exp.Fig5(p))
	case "fig6":
		return show(exp.Fig6(p))
	case "fig7":
		return show(exp.Fig7(p))
	case "fig8":
		tables, err := exp.Fig8(p)
		if err != nil {
			return err
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		return nil
	case "fig9":
		return show(exp.Fig9(p))
	case "fig10":
		return show(exp.Fig10(p))
	case "fig11":
		return show(exp.Fig11(p))
	case "fig12":
		return show(exp.Fig12(p))
	case "fig13":
		return show(exp.Fig13(p))
	case "failover":
		return show(exp.FigFailover(p))
	case "ablate":
		iters := int(p.WithDefaults().RunTime / (200 * time.Nanosecond))
		if iters < 2000 {
			iters = 2000
		}
		fmt.Println(exp.AblationPiggyback(iters))
		fmt.Println(exp.AblationDependencyVectors(iters/4, 8))
		fmt.Println(exp.AblationServers(5, 1))
		fmt.Println(exp.AblationServers(2, 2))
		fmt.Println(exp.AblationTransactions(iters/8, 8))
		fmt.Println(exp.AblationEngines(iters/8, 8))
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}
