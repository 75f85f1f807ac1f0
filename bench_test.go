// Benchmarks: one per table and figure of the paper's evaluation (DESIGN.md
// maps each to its experiment). Every benchmark runs a reduced-scale version
// of the corresponding experiment per iteration and reports the headline
// metric via ReportMetric (avgFCTms, and unfinished%% where relevant), so
// `go test -bench=. -benchmem` regenerates the whole evaluation's shape.
// cmd/hermes-bench prints the full paper-style rows.
package hermes

import (
	"fmt"
	"testing"

	"github.com/hermes-repro/hermes/internal/core"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

const benchFlows = 150

func benchTopo() Topology {
	return Topology{
		Leaves: 4, Spines: 4, HostsPerLeaf: 8,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelayNs: 2000, FabricDelayNs: 2000,
	}
}

// benchParams derives the Table 4 defaults for the benchmark fabric.
func benchParams() core.Params {
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(0), benchTopo().toNet())
	if err != nil {
		panic(err)
	}
	return core.DefaultParams(nw)
}

// benchRun executes cfg b.N times and reports the last run's average FCT
// and the engine throughput over all runs.
func benchRun(b *testing.B, cfg Config) *Result {
	b.Helper()
	var last *Result
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
		last = res
	}
	b.ReportMetric(last.FCT.Overall.MeanMs(), "avgFCTms")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	return last
}

// --- Table 2 ---------------------------------------------------------------

func BenchmarkTable2Visibility(b *testing.B) {
	res := benchRun(b, Config{
		Topology: benchTopo(), Scheme: SchemeECMP, Workload: "web-search",
		Load: 0.6, Flows: benchFlows, MeasureVisibility: true,
	})
	b.ReportMetric(res.VisibilitySwitchPair, "switchPairVis")
	b.ReportMetric(res.VisibilityHostPair*1000, "hostPairVis(x1000)")
}

// --- Table 6 ---------------------------------------------------------------

func BenchmarkTable6Probing(b *testing.B) {
	res := benchRun(b, Config{
		Topology: benchTopo(), Scheme: SchemeHermes, Workload: "web-search",
		Load: 0.5, Flows: benchFlows,
	})
	b.ReportMetric(100*res.ProbeOverhead, "probeOverhead%")
}

// --- Fig 9-11: testbed ------------------------------------------------------

func BenchmarkFig9TestbedSymmetric(b *testing.B) {
	for _, sch := range []Scheme{SchemeECMP, SchemeCLOVE, SchemePresto, SchemeHermes} {
		b.Run(string(sch), func(b *testing.B) {
			benchRun(b, Config{
				Topology: TestbedTopology(), Scheme: sch, Workload: "web-search",
				Load: 0.6, Flows: benchFlows,
			})
		})
	}
}

func BenchmarkFig10TestbedAsymmetric(b *testing.B) {
	cut := FailureSpec{Kind: FailureCutCable, CutLeaf: 1, CutSpine: 1}
	for _, sch := range []Scheme{SchemeECMP, SchemeCLOVE, SchemePresto, SchemeHermes} {
		b.Run(string(sch), func(b *testing.B) {
			benchRun(b, Config{
				Topology: TestbedTopology(), Scheme: sch, Workload: "web-search",
				Load: 0.6, Flows: benchFlows, Failure: cut,
			})
		})
	}
}

func BenchmarkFig11TestbedBreakdown(b *testing.B) {
	cut := FailureSpec{Kind: FailureCutCable, CutLeaf: 1, CutSpine: 1}
	res := benchRun(b, Config{
		Topology: TestbedTopology(), Scheme: SchemeHermes, Workload: "web-search",
		Load: 0.6, Flows: benchFlows, Failure: cut,
	})
	b.ReportMetric(res.FCT.Small.MeanMs(), "smallAvgMs")
	b.ReportMetric(res.FCT.Small.P99Ms(), "smallP99Ms")
	b.ReportMetric(res.FCT.Large.MeanMs(), "largeAvgMs")
}

// --- Fig 12: symmetric baseline ----------------------------------------------

func BenchmarkFig12Baseline(b *testing.B) {
	for _, wl := range []string{"web-search", "data-mining"} {
		for _, sch := range []Scheme{SchemeECMP, SchemeCONGA, SchemeHermes} {
			b.Run(fmt.Sprintf("%s/%s", wl, sch), func(b *testing.B) {
				benchRun(b, Config{
					Topology: benchTopo(), Scheme: sch, Workload: wl,
					Load: 0.6, Flows: benchFlows,
				})
			})
		}
	}
}

// --- Fig 13/14: asymmetric ----------------------------------------------------

func BenchmarkFig13AsymmetricWebSearch(b *testing.B) {
	for _, sch := range []Scheme{SchemeCONGA, SchemeLetFlow, SchemeCLOVE, SchemePresto, SchemeHermes} {
		b.Run(string(sch), func(b *testing.B) {
			res := benchRun(b, Config{
				Topology: benchTopo(), Scheme: sch, Workload: "web-search",
				Load: 0.6, Flows: benchFlows,
				Failure: FailureSpec{Kind: FailureDegrade, Fraction: 0.2, DegradedBps: 2e9},
			})
			b.ReportMetric(res.FCT.Small.P99Ms(), "smallP99Ms")
		})
	}
}

func BenchmarkFig14AsymmetricDataMining(b *testing.B) {
	for _, sch := range []Scheme{SchemeCONGA, SchemeLetFlow, SchemeCLOVE, SchemeHermes} {
		b.Run(string(sch), func(b *testing.B) {
			res := benchRun(b, Config{
				Topology: benchTopo(), Scheme: sch, Workload: "data-mining",
				Load: 0.6, Flows: benchFlows,
				Failure: FailureSpec{Kind: FailureDegrade, Fraction: 0.2, DegradedBps: 2e9},
			})
			b.ReportMetric(res.FCT.Large.MeanMs(), "largeAvgMs")
		})
	}
}

// --- Fig 15: CONGA flowlet-timeout sweep ---------------------------------------

func BenchmarkFig15CongaFlowletTimeout(b *testing.B) {
	for _, us := range []int64{50, 150, 500} {
		b.Run(fmt.Sprintf("%dus", us), func(b *testing.B) {
			benchRun(b, Config{
				Topology: benchTopo(), Scheme: SchemeCONGA, Workload: "web-search",
				Load: 0.8, Flows: benchFlows,
				Failure:          FailureSpec{Kind: FailureDegrade, Fraction: 0.2, DegradedBps: 2e9},
				FlowletTimeoutNs: us * 1000,
				ReorderTimeoutNs: 400_000,
			})
		})
	}
}

// --- Fig 16/17: switch failures -------------------------------------------------

func BenchmarkFig16RandomDrop(b *testing.B) {
	spec := FailureSpec{Kind: FailureRandomDrop, Spine: 1, DropRate: 0.02}
	for _, sch := range []Scheme{SchemeECMP, SchemeCONGA, SchemeLetFlow, SchemeHermes} {
		b.Run(string(sch), func(b *testing.B) {
			benchRun(b, Config{
				Topology: benchTopo(), Scheme: sch, Workload: "web-search",
				Load: 0.5, Flows: benchFlows, Failure: spec,
			})
		})
	}
}

func BenchmarkFig17Blackhole(b *testing.B) {
	spec := FailureSpec{Kind: FailureBlackhole, Spine: 1, SrcLeaf: 0, DstLeaf: 3}
	for _, sch := range []Scheme{SchemeECMP, SchemeCONGA, SchemeLetFlow, SchemeHermes} {
		b.Run(string(sch), func(b *testing.B) {
			res := benchRun(b, Config{
				Topology: benchTopo(), Scheme: sch, Workload: "web-search",
				Load: 0.5, Flows: benchFlows, Failure: spec,
			})
			b.ReportMetric(100*res.FCT.UnfinishedFrac, "unfinished%")
		})
	}
}

// --- Fig 18: ablations ------------------------------------------------------------

func BenchmarkFig18aAblation(b *testing.B) {
	asym := FailureSpec{Kind: FailureDegrade, Fraction: 0.2, DegradedBps: 2e9}
	variants := []struct {
		name               string
		noProbe, noReroute bool
	}{
		{"full", false, false},
		{"noProbe", true, false},
		{"noReroute", false, true},
		{"neither", true, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			params := benchParams()
			if v.noProbe {
				params.ProbeInterval = 0
			}
			params.DisableReroute = v.noReroute
			benchRun(b, Config{
				Topology: benchTopo(), Scheme: SchemeHermes, Workload: "data-mining",
				Load: 0.6, Flows: benchFlows, Failure: asym,
				HermesParams: &params,
			})
		})
	}
}

func BenchmarkFig18bProbeInterval(b *testing.B) {
	asym := FailureSpec{Kind: FailureDegrade, Fraction: 0.2, DegradedBps: 2e9}
	for _, us := range []int64{0, 100, 500} {
		b.Run(fmt.Sprintf("%dus", us), func(b *testing.B) {
			params := benchParams()
			params.ProbeInterval = us * 1000
			benchRun(b, Config{
				Topology: benchTopo(), Scheme: SchemeHermes, Workload: "data-mining",
				Load: 0.6, Flows: benchFlows, Failure: asym,
				HermesParams: &params,
			})
		})
	}
}

// --- Fig 19: parameter sensitivity ----------------------------------------------

func BenchmarkFig19Sensitivity(b *testing.B) {
	asym := FailureSpec{Kind: FailureDegrade, Fraction: 0.2, DegradedBps: 2e9}
	for _, us := range []int64{140, 180, 260} {
		b.Run(fmt.Sprintf("TRTTHigh=%dus", us), func(b *testing.B) {
			params := benchParams()
			params.TRTTHigh = us * 1000
			benchRun(b, Config{
				Topology: benchTopo(), Scheme: SchemeHermes, Workload: "web-search",
				Load: 0.6, Flows: benchFlows, Failure: asym,
				HermesParams: &params,
			})
		})
	}
	for _, us := range []int64{40, 80, 160} {
		b.Run(fmt.Sprintf("DeltaRTT=%dus", us), func(b *testing.B) {
			params := benchParams()
			params.DeltaRTT = us * 1000
			benchRun(b, Config{
				Topology: benchTopo(), Scheme: SchemeHermes, Workload: "web-search",
				Load: 0.6, Flows: benchFlows, Failure: asym,
				HermesParams: &params,
			})
		})
	}
}

// --- DESIGN.md ablation: cautious vs vigorous -----------------------------------

func BenchmarkAblationCaution(b *testing.B) {
	asym := FailureSpec{Kind: FailureDegrade, Fraction: 0.2, DegradedBps: 2e9}
	for _, vigorous := range []bool{false, true} {
		name := "cautious"
		if vigorous {
			name = "vigorous"
		}
		b.Run(name, func(b *testing.B) {
			params := benchParams()
			params.Vigorous = vigorous
			res := benchRun(b, Config{
				Topology: benchTopo(), Scheme: SchemeHermes, Workload: "web-search",
				Load: 0.7, Flows: benchFlows, Failure: asym,
				HermesParams: &params,
			})
			b.ReportMetric(float64(res.Reroutes), "reroutes")
		})
	}
}

// --- Telemetry overhead ----------------------------------------------------

// BenchmarkTelemetryOff vs BenchmarkTelemetryOn quantify the observability
// tax. With telemetry off every hook is a nil check, so Off must track the
// pre-instrumentation baseline (<2% on events/s); the Off/On gap bounds the
// full registry + report series + audit cost.
func BenchmarkTelemetryOff(b *testing.B) {
	benchRun(b, Config{
		Topology: benchTopo(), Scheme: SchemeHermes, Workload: "web-search",
		Load: 0.6, Flows: benchFlows,
	})
}

func BenchmarkTelemetryOn(b *testing.B) {
	benchRun(b, Config{
		Topology: benchTopo(), Scheme: SchemeHermes, Workload: "web-search",
		Load: 0.6, Flows: benchFlows, Telemetry: true,
	})
}
