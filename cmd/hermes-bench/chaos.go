package main

import (
	"fmt"
	"log"
	"os"

	hermes "github.com/hermes-repro/hermes"
)

func init() {
	register("chaos", "[extra] chaos resilience matrix: schemes x failure scenarios x seeds, recovery scorecard (§5.3.2/§5.3.3)", chaosExp)
}

// chaosTopo is the matrix fabric: 2x2 at 1G hosts / 2G fabric links, where a
// spine blackhole is half of ECMP's hash space and part of every Presto*
// spray — small enough that the full matrix runs in seconds.
func chaosTopo() hermes.Topology {
	return hermes.Topology{
		Leaves: 2, Spines: 2, HostsPerLeaf: 4,
		HostRateBps: 1e9, FabricRateBps: 2e9,
		HostDelayNs: 2000, FabricDelayNs: 2000,
	}
}

var chaosScenarioNames = []string{"spine-blackhole", "blackhole-recover", "drop-recover", "multi"}

func chaosExp(o options) {
	topo := chaosTopo()
	var scenarios []*hermes.Scenario
	for _, name := range chaosScenarioNames {
		sc, err := hermes.BuiltinScenario(name, topo)
		if err != nil {
			log.Fatal(err)
		}
		scenarios = append(scenarios, sc)
	}
	flows := o.flows
	if flows > 200 {
		flows = 200 // recovery metrics saturate long before bench's default
	}
	m, err := hermes.RunChaosMatrix(benchCtx, hermes.ChaosMatrixConfig{
		Base: hermes.Config{
			Topology: topo, Workload: "web-search", Load: 0.5,
			Flows: flows, DrainTimeoutNs: 300e6,
		},
		Schemes:   failureSchemes,
		Scenarios: scenarios,
		Seeds:     hermes.Seeds(o.seed, 3),
		Options:   hermes.ParallelOptions{Workers: sweepWorkers},
	})
	if err != nil && m == nil {
		log.Fatal(err)
	}
	if renderErr := m.RenderText(os.Stdout, 40); renderErr != nil {
		log.Fatal(renderErr)
	}

	// Long-format CSV mirror: one row per matrix cell.
	beginCSVTable([]string{"scheme", "scenario", "detect_ms", "reroute_ms",
		"worst_dip_ms", "dip_cost_gbps_ms", "p99_ms", "p99_inflation_pct", "unfinished"})
	for _, c := range m.Cells {
		csvRow([]string{string(c.Scheme), c.Scenario,
			fmt.Sprintf("%.3f", c.MeanDetectMs), fmt.Sprintf("%.3f", c.MeanRerouteMs),
			fmt.Sprintf("%.3f", c.WorstDipMs.Mean), fmt.Sprintf("%.3f", c.DipIntegral.Mean),
			fmt.Sprintf("%.3f", c.P99Ms.Mean), fmt.Sprintf("%.2f", c.P99InflationPct),
			fmt.Sprintf("%d", c.Unfinished)})
	}
	if err != nil {
		// Interrupted sweep: the partial scorecard and its CSV mirror are on
		// disk; report the cancellation with a non-zero exit.
		endCSVTable()
		fmt.Fprintf(os.Stderr, "\ninterrupted (%v); partial chaos matrix flushed\n", err)
		stopProfiles()
		os.Exit(130)
	}
}
