// hermes-trace analyzes a flow trace written by hermes.Config.TraceWriter
// (hermes-sim -trace / hermes-bench -trace): it attributes each flow's
// completion time to base RTT, queueing, RTO stalls and reroute gaps, ranks
// the slowest flows, renders a per-port queue-occupancy heatmap from the
// matching run report, and converts traces to Perfetto-loadable JSON.
//
// Examples:
//
//	hermes-trace run.trace.jsonl
//	hermes-trace -report run.report.json -top 15 run.trace.jsonl
//	hermes-trace -perfetto run.perfetto.json run.trace.jsonl
//	hermes-trace -compare hermes.trace.jsonl ecmp.trace.jsonl
//	hermes-trace -timeline run.ts.jsonl
//	hermes-trace -alerts run.alerts.jsonl
//	hermes-trace -checkpoint ckpts/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	hermes "github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/internal/perf"
	"github.com/hermes-repro/hermes/internal/textplot"
	"github.com/hermes-repro/hermes/internal/trace"
)

func main() {
	var (
		reportFile  = flag.String("report", "", "run report JSON (adds the per-port queue-occupancy heatmap)")
		topN        = flag.Int("top", 10, "number of slowest flows to detail")
		pct         = flag.Float64("pct", 0.99, "tail percentile for the attribution summary (in [0,1))")
		perfetto    = flag.String("perfetto", "", "also convert the trace to Chrome trace-event JSON at this path")
		compareFile = flag.String("compare", "", "second trace: print a side-by-side attribution comparison instead of a full analysis")
		tsFile      = flag.String("timeline", "", "flight-recorder time series (.jsonl or .csv, from hermes-sim -timeseries): render sparklines, queue heatmap and path-state timelines")
		ledgerFile  = flag.String("perf-ledger", "", "perf ledger JSON (from hermes-bench -perf): render each benchmark's ns/op trajectory")
		alertsFile  = flag.String("alerts", "", "alert log JSONL (from hermes-sim/hermes-chaos -alert-log): render each run's episodes and state timeline")
		ckptFile    = flag.String("checkpoint", "", "checkpoint file or directory (from hermes-sim -checkpoint-dir): print its header, embedded experiment and state-section sizes")
		width       = flag.Int("width", 64, "chart width in cells")
		version     = flag.Bool("version", false, "print build version and VCS revision, then exit")
	)
	prof := perf.ProfileFlags(flag.CommandLine, "the analysis")
	flag.Parse()
	if *version {
		fmt.Println(hermes.VersionString())
		return
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()
	if *ledgerFile != "" {
		if err := renderPerfLedger(os.Stdout, *ledgerFile, *width); err != nil {
			log.Fatal(err)
		}
		if flag.NArg() == 0 && *tsFile == "" && *alertsFile == "" {
			return
		}
	}
	if *ckptFile != "" {
		if err := inspectCheckpoint(os.Stdout, *ckptFile); err != nil {
			log.Fatal(err)
		}
		if flag.NArg() == 0 && *tsFile == "" && *alertsFile == "" {
			return
		}
	}
	if *alertsFile != "" {
		if err := renderAlertLog(os.Stdout, *alertsFile, *width); err != nil {
			log.Fatal(err)
		}
		if flag.NArg() == 0 && *tsFile == "" {
			return
		}
	}
	if *tsFile != "" {
		if err := timeline(os.Stdout, loadTimeseries(*tsFile), *width); err != nil {
			log.Fatal(err)
		}
		if flag.NArg() == 0 {
			return
		}
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hermes-trace [flags] trace.jsonl")
		fmt.Fprintln(os.Stderr, "       hermes-trace -timeline run.ts.jsonl")
		flag.PrintDefaults()
		stopProfiles()
		os.Exit(2)
	}
	if *pct < 0 || *pct >= 1 {
		log.Fatalf("-pct %v out of range [0,1)", *pct)
	}

	rec := loadTrace(flag.Arg(0))

	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.WritePerfetto(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfetto trace written to %s (open in ui.perfetto.dev)\n", *perfetto)
	}

	if *compareFile != "" {
		other := loadTrace(*compareFile)
		if err := compare(os.Stdout, flag.Arg(0), rec, *compareFile, other, *pct); err != nil {
			log.Fatal(err)
		}
		return
	}

	var rep *hermes.Report
	if *reportFile != "" {
		data, err := os.ReadFile(*reportFile)
		if err != nil {
			log.Fatal(err)
		}
		rep = &hermes.Report{}
		if err := json.Unmarshal(data, rep); err != nil {
			log.Fatalf("parse %s: %v", *reportFile, err)
		}
	}
	if err := analyze(os.Stdout, rec, rep, *topN, *pct, *width); err != nil {
		log.Fatal(err)
	}
}

func loadTrace(path string) *trace.Recorder {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rec, err := trace.ReadJSONL(f)
	if err != nil {
		log.Fatal(err)
	}
	return rec
}

// analyze prints the full attribution report for one trace.
func analyze(w io.Writer, rec *trace.Recorder, rep *hermes.Report, topN int, pct float64, width int) error {
	printHeader(w, rec)

	s := rec.Summarize()
	fmt.Fprintf(w, "%d events (%d flows, %d completed), %d spans",
		len(rec.Events), s.Flows, s.Completed, len(rec.Spans))
	if rec.Dropped > 0 || rec.DroppedSpans > 0 {
		fmt.Fprintf(w, " [TRUNCATED: %d events, %d spans dropped]", rec.Dropped, rec.DroppedSpans)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "moves/flow %.2f, retx %d, rto %d, ecn %d, drops %d\n",
		s.MovesPerFlow, s.Retransmits, s.Timeouts, s.ECNMarks, s.Drops)

	flows := rec.Attribution()
	if len(flows) == 0 {
		fmt.Fprintln(w, "no spans in trace: attribution unavailable (v1 trace?)")
		return nil
	}

	all := trace.TailAttribution(flows, 0)
	tail := trace.TailAttribution(flows, pct)
	fmt.Fprintf(w, "\nFCT attribution (share of summed completion time):\n")
	fmt.Fprintf(w, "%-14s %10s %14s\n", "component", "all flows",
		fmt.Sprintf("p%g tail", pct*100))
	row := func(name string, a, t float64) {
		fmt.Fprintf(w, "%-14s %9.1f%% %13.1f%%\n", name, 100*a, 100*t)
	}
	row("base", all.BaseShare, tail.BaseShare)
	row("queueing", all.QueueShare, tail.QueueShare)
	row("rto stall", all.StallShare, tail.StallShare)
	row("reroute gap", all.RerouteShare, tail.RerouteShare)
	fmt.Fprintf(w, "tail: %d flows with FCT >= %.3f ms (mean %.3f ms, %d unfinished)\n",
		tail.N, ms(int64(tail.CutoffNs)), ms(int64(tail.MeanFCTNs)), tail.Unfinished)

	top := trace.SlowestFlows(flows, topN)
	fmt.Fprintf(w, "\ntop %d slow flows:\n", len(top))
	fmt.Fprintf(w, "%8s %10s %10s %6s %6s %6s %6s %3s %3s %4s  %s\n",
		"flow", "size", "fct(ms)", "base%", "queue%", "stall%", "rrt%", "mv", "rto", "retx", "paths (reasons)")
	for _, b := range top {
		// Per-packet sprayers (Presto, DRB) visit thousands of paths per
		// flow; cap the listing so the table stays a table.
		const maxPaths = 12
		shown := b.Paths
		extra := 0
		if len(shown) > maxPaths {
			extra = len(shown) - maxPaths
			shown = shown[:maxPaths]
		}
		paths := make([]string, len(shown))
		for i, p := range shown {
			paths[i] = fmt.Sprint(p)
		}
		pathCol := "[" + strings.Join(paths, " ") + "]"
		if extra > 0 {
			pathCol += fmt.Sprintf(" +%d more", extra)
		}
		if len(b.Reasons) > 0 {
			pathCol += " (" + strings.Join(b.Reasons, ",") + ")"
		}
		if !b.Finished {
			pathCol += " UNFINISHED"
		}
		fmt.Fprintf(w, "%8d %10s %10.3f %5.1f%% %5.1f%% %5.1f%% %5.1f%% %3d %3d %4d  %s\n",
			b.Flow, bytesStr(b.Size), ms(int64(b.FCT)),
			100*b.Share(b.BaseNs), 100*b.Share(b.QueueNs),
			100*b.Share(b.StallNs), 100*b.Share(b.RerouteNs),
			b.Moves, b.Timeouts, b.Retx, pathCol)
	}

	printHopDecomposition(w, rec, width)
	if rep != nil {
		printQueueHeatmap(w, rep, width)
	}
	printVerdicts(w, rec)
	return nil
}

func printHeader(w io.Writer, rec *trace.Recorder) {
	m := rec.Meta
	if m.Schema == "" {
		fmt.Fprintln(w, "trace: (no meta header: v1 trace)")
		return
	}
	fmt.Fprintf(w, "trace: scheme=%s workload=%s load=%.2f seed=%d", m.Scheme, m.Workload, m.Load, m.Seed)
	if m.Failure != "" {
		fmt.Fprintf(w, " failure=%s", m.Failure)
	}
	fmt.Fprintf(w, "\nbase RTT %.1f us, host rate %.1f Gbps, simulated %.1f ms\n",
		float64(m.BaseRTTNs)/1e3, float64(m.HostRateBps)/1e9, float64(m.SimDurationNs)/1e6)
}

// printHopDecomposition aggregates the fabric's per-flow hop accounting into
// a where-did-queueing-happen bar chart.
func printHopDecomposition(w io.Writer, rec *trace.Recorder, width int) {
	if len(rec.FlowHops) == 0 {
		return
	}
	hopNames := []string{"host->leaf", "leaf->spine", "spine->leaf", "leaf->host"}
	var series []textplot.Series
	var totalQueue, totalSer, totalProp float64
	hopQ := make([]float64, len(hopNames))
	for _, fh := range rec.FlowHops {
		totalQueue += float64(fh.QueueNs)
		totalSer += float64(fh.SerNs)
		totalProp += float64(fh.PropNs)
		for i := range hopQ {
			if i < len(fh.HopQueueNs) {
				hopQ[i] += float64(fh.HopQueueNs[i])
			}
		}
	}
	for i, name := range hopNames {
		series = append(series, textplot.Series{Label: name, Values: []float64{hopQ[i] / 1e6}})
	}
	fmt.Fprintf(w, "\nfabric delay decomposition (all delivered data packets): queue %.3f ms, serialization %.3f ms, propagation %.3f ms\n",
		totalQueue/1e6, totalSer/1e6, totalProp/1e6)
	_ = textplot.Bars(w, "queueing by hop (ms):", []string{"ms"}, series, width)
}

// printQueueHeatmap renders the swept per-port queue depths from a run
// report as a time heatmap, one row per fabric port.
func printQueueHeatmap(w io.Writer, rep *hermes.Report, width int) {
	const prefix = "net.port.queue_bytes{port="
	var rows []textplot.Series
	for _, s := range rep.Series {
		if !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		label := strings.TrimSuffix(strings.TrimPrefix(s.Name, prefix), "}")
		rows = append(rows, textplot.Series{Label: label, Values: s.Values})
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "\nreport has no per-port queue series (run with -telemetry)")
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Label < rows[j].Label })
	fmt.Fprintln(w)
	_ = textplot.Heatmap(w, "per-port queue occupancy over time (bytes):", rows, width)
}

func printVerdicts(w io.Writer, rec *trace.Recorder) {
	if len(rec.Verdicts) == 0 {
		return
	}
	fmt.Fprintf(w, "\nhermes failure verdicts (%d):\n", len(rec.Verdicts))
	max := len(rec.Verdicts)
	if max > 20 {
		max = 20
	}
	for _, v := range rec.Verdicts[:max] {
		fmt.Fprintf(w, "  %10.3f ms  host %d -> leaf %d: path %d condemned (%s)\n",
			ms(int64(v.At)), v.Host, v.DstLeaf, v.Path, v.Reason)
	}
	if len(rec.Verdicts) > max {
		fmt.Fprintf(w, "  ... %d more\n", len(rec.Verdicts)-max)
	}
}

// compare prints the scheme-level attribution of two traces side by side —
// the Fig 8/17-style question "where does each scheme's tail time go".
func compare(w io.Writer, nameA string, a *trace.Recorder, nameB string, b *trace.Recorder, pct float64) error {
	labelA, labelB := a.Meta.Scheme, b.Meta.Scheme
	if labelA == "" {
		labelA = nameA
	}
	if labelB == "" {
		labelB = nameB
	}
	fa, fb := a.Attribution(), b.Attribution()
	ta, tb := trace.TailAttribution(fa, pct), trace.TailAttribution(fb, pct)
	aa, ab := trace.TailAttribution(fa, 0), trace.TailAttribution(fb, 0)

	fmt.Fprintf(w, "FCT attribution: %s vs %s (p%g tail | all flows)\n", labelA, labelB, pct*100)
	fmt.Fprintf(w, "%-14s %22s %22s\n", "component", labelA, labelB)
	row := func(name string, ta1, aa1, tb1, ab1 float64) {
		fmt.Fprintf(w, "%-14s %10.1f%% | %7.1f%% %10.1f%% | %7.1f%%\n",
			name, 100*ta1, 100*aa1, 100*tb1, 100*ab1)
	}
	row("base", ta.BaseShare, aa.BaseShare, tb.BaseShare, ab.BaseShare)
	row("queueing", ta.QueueShare, aa.QueueShare, tb.QueueShare, ab.QueueShare)
	row("rto stall", ta.StallShare, aa.StallShare, tb.StallShare, ab.StallShare)
	row("reroute gap", ta.RerouteShare, aa.RerouteShare, tb.RerouteShare, ab.RerouteShare)
	fmt.Fprintf(w, "tail mean FCT  %10.3f ms %21.3f ms\n", ms(int64(ta.MeanFCTNs)), ms(int64(tb.MeanFCTNs)))
	fmt.Fprintf(w, "tail unfinished %9d %24d\n", ta.Unfinished, tb.Unfinished)
	if tb.StallShare > 0 {
		fmt.Fprintf(w, "stall-share ratio (%s/%s): %.1fx\n", labelA, labelB, ta.StallShare/tb.StallShare)
	}
	return nil
}

// renderPerfLedger prints each pinned benchmark's ns/op trajectory from the
// perf ledger: a sparkline over entries (oldest left), the entry history,
// and — when at least two entries exist — the latest-vs-previous verdict
// from the same comparator CI uses.
func renderPerfLedger(w io.Writer, path string, width int) error {
	// Distinguish "no such file" from "a ledger with zero entries":
	// LoadLedger maps a missing file to an empty ledger (the right behavior
	// for hermes-bench appending its first entry), but for a viewer a typo'd
	// path should not masquerade as an empty history.
	if _, err := os.Stat(path); os.IsNotExist(err) {
		fmt.Fprintf(w, "perf ledger %s not found (hermes-bench -perf creates it; check the path)\n", path)
		return nil
	}
	ledger, err := perf.LoadLedger(path)
	if err != nil {
		return err
	}
	if len(ledger.Entries) == 0 {
		fmt.Fprintf(w, "perf ledger %s has no entries yet (seed it with hermes-bench -perf)\n", path)
		return nil
	}
	fmt.Fprintf(w, "perf ledger %s: %d entries\n", path, len(ledger.Entries))
	for _, name := range ledger.Names() {
		var history []perf.LedgerEntry
		for _, e := range ledger.Entries {
			if e.Name == name {
				history = append(history, e)
			}
		}
		fmt.Fprintf(w, "\n%s (%d measurements)\n", name, len(history))
		ns := make([]float64, len(history))
		for i, e := range history {
			ns[i] = e.NsOp
		}
		if err := textplot.Sparkline(w, "  ns/op", ns, width); err != nil {
			return err
		}
		for _, e := range history {
			rev := e.Fingerprint.Revision
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if rev == "" {
				rev = "unknown"
			}
			line := fmt.Sprintf("  %s  %8.0f ns/op %6d B/op %4d allocs/op  rev %s", e.Date, e.NsOp, e.BOp, e.AllocsOp, rev)
			if e.Fingerprint.Dirty {
				line += "+dirty"
			}
			if e.Note != "" {
				line += "  (" + e.Note + ")"
			}
			fmt.Fprintln(w, line)
		}
		if len(history) >= 2 {
			c := perf.CompareEntries(history[len(history)-2], history[len(history)-1])
			fmt.Fprintf(w, "  latest vs previous: %s\n", c.String())
		}
	}
	return nil
}

// renderAlertLog prints every run of a JSONL alert log (hermes-sim or
// hermes-chaos -alert-log): the run label, episode lines, and the per-rule
// state timeline.
func renderAlertLog(w io.Writer, path string, width int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runs, err := hermes.ReadAlertLog(f)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		fmt.Fprintf(w, "alert log %s has no runs (arm the watchdog with -alerts)\n", path)
		return nil
	}
	fmt.Fprintf(w, "alert log %s: %d run(s)\n", path, len(runs))
	for i := range runs {
		fmt.Fprintf(w, "\nrun %s\n", runs[i].Label)
		if err := hermes.RenderAlertText(w, &runs[i].Report, width); err != nil {
			return err
		}
	}
	return nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func bytesStr(n int64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1f MB", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1f KB", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d B", n)
	}
}
