// hermes-bench regenerates every table and figure of the paper's evaluation
// (see DESIGN.md for the experiment index). Each experiment prints the same
// rows or series the paper reports; absolute numbers come from this
// repository's simulator, so compare shapes, orderings and ratios rather
// than raw values (EXPERIMENTS.md records both).
//
// Usage:
//
//	hermes-bench -exp fig12              # one experiment
//	hermes-bench -exp all                # the whole evaluation
//	hermes-bench -exp fig13 -flows 2000  # higher fidelity
//	hermes-bench -list                   # enumerate experiments
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/internal/perf"
	"github.com/hermes-repro/hermes/internal/textplot"
)

// options are shared across experiments.
type options struct {
	flows int   // flows per data point
	seed  int64 // base seed
	full  bool  // paper-scale topology (8x8x16) instead of reduced (4x4x8)
}

// CSV mirroring: when -csv DIR is set, every table printed through
// header()/row() is also written as DIR/<experiment>_<n>.csv. When -plot is
// set, each table is additionally rendered as ASCII bars.
// sweepWorkers bounds the concurrent simulations a load sweep runs; the
// -workers flag overrides it (default GOMAXPROCS).
var sweepWorkers = runtime.GOMAXPROCS(0)

var (
	csvDir     string
	plotTables bool
	currentExp string
	tableSeq   int
	csvFile    *os.File

	plotCols   []string
	plotSeries []textplot.Series
)

func beginCSVTable(cols []string) {
	endCSVTable()
	tableSeq++
	plotCols = cols[1:]
	if csvDir == "" {
		return
	}
	name := filepath.Join(csvDir, fmt.Sprintf("%s_%d.csv", currentExp, tableSeq))
	f, err := os.Create(name)
	if err != nil {
		log.Fatalf("csv: %v", err)
	}
	csvFile = f
	fmt.Fprintln(f, strings.Join(cols, ","))
}

func csvRow(vals []string) {
	if csvFile != nil {
		fmt.Fprintln(csvFile, strings.Join(vals, ","))
	}
}

func plotRow(name string, vals []float64) {
	if !plotTables {
		return
	}
	cp := make([]float64, len(vals))
	copy(cp, vals)
	plotSeries = append(plotSeries, textplot.Series{Label: name, Values: cp})
}

func endCSVTable() {
	if csvFile != nil {
		csvFile.Close()
		csvFile = nil
	}
	if plotTables && len(plotSeries) > 0 {
		fmt.Println()
		if err := textplot.Bars(os.Stdout, "(scaled bars)", plotCols, plotSeries, 40); err != nil {
			log.Fatal(err)
		}
	}
	plotSeries = nil
}

type experiment struct {
	name  string
	what  string
	runFn func(o options)
}

var registry []experiment

func register(name, what string, fn func(o options)) {
	registry = append(registry, experiment{name, what, fn})
}

func main() {
	var (
		exp    = flag.String("exp", "", "experiment id (see -list) or 'all'")
		flows  = flag.Int("flows", 600, "flows per data point")
		seed   = flag.Int64("seed", 1, "base random seed")
		full   = flag.Bool("full", false, "use the paper's full 8x8x16 topology (slower)")
		list   = flag.Bool("list", false, "list experiments and exit")
		csvOut = flag.String("csv", "", "also write each table as CSV into this directory")
		plot   = flag.Bool("plot", false, "render each table as ASCII bars too")

		workers = flag.Int("workers", 0, "worker-pool size for multi-seed sweeps (0 = GOMAXPROCS)")

		telem  = flag.Bool("telemetry", false, "run every experiment with telemetry enabled")
		repDir = flag.String("report", "", "write one telemetry report JSON per run into this directory (implies -telemetry)")
		audDir = flag.String("audit", "", "write one Hermes audit JSONL per run into this directory (implies -telemetry)")
		trcDir = flag.String("trace", "", "write one flow-trace JSONL per run into this directory (analyze with hermes-trace)")
		tsDir  = flag.String("timeseries", "", "write one flight-recorder time-series JSONL per run into this directory (view with hermes-trace -timeline)")

		perfBench  = flag.Bool("perf", false, "run the pinned microbenchmarks, append results to the perf ledger, then exit")
		perfCount  = flag.Int("perf-count", 5, "repetitions per pinned benchmark in -perf mode")
		perfLedger = flag.String("perf-ledger", "BENCH_perf.json", "perf ledger file read and appended by -perf")
		perfBase   = flag.Bool("perf-baseline", false, "in -perf mode, compare new measurements against the latest ledger entries")
		perfNote   = flag.String("perf-note", "", "free-form note stamped on ledger entries written by -perf")
		perfRuns   = flag.Bool("perf-runs", false, "profile every experiment run and print the perf observatory aggregate at exit")

		statusAddr  = flag.String("status", "", `serve the live status plane on this address while experiments run (e.g. ":8080"; see /api/progress, /metrics)`)
		progress    = flag.Bool("progress", false, "print a progress line (runs done, ETA) to stderr every few seconds")
		progressSec = flag.Int("progress-interval", 5, "seconds between -progress lines")
		version     = flag.Bool("version", false, "print build version and VCS revision, then exit")
	)
	prof := perf.ProfileFlags(flag.CommandLine, "the experiments")
	flag.Parse()
	if *version {
		fmt.Println(hermes.VersionString())
		return
	}
	if *perfBench {
		runPerfLedger(*perfLedger, *perfCount, *perfNote, *perfBase)
		return
	}
	if *perfRuns {
		perfRunsOn = true
		obs := hermes.NewPerfObservatory()
		hermes.SetDefaultPerfObservatory(obs)
		defer printPerfAggregate(obs)
	}
	plotTables = *plot
	hermes.SetDefaultWorkers(*workers)

	// SIGINT/SIGTERM cancel every pooled and in-flight simulation at its
	// next scheduling slice; mustRun funnels the cancellations through
	// interruptExit, which flushes the partial table before exiting non-zero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	benchCtx = ctx
	hermes.SetDefaultRunContext(ctx)
	if *statusAddr != "" || *progress {
		// Experiments build their Configs internally, so observability rides
		// the process-wide default tracker rather than Config.Status.
		st := hermes.NewStatus()
		statusTracker = st
		hermes.SetDefaultStatus(st)
		if *statusAddr != "" {
			srv, err := hermes.ServeStatus(*statusAddr, st)
			if err != nil {
				log.Fatal(err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "status plane on %s\n", srv.URL())
		}
		if *progress {
			stop := st.StartLogging(os.Stderr, time.Duration(*progressSec)*time.Second)
			defer stop()
		}
	}
	if *workers > 0 {
		sweepWorkers = *workers
	}
	if *csvOut != "" {
		if err := os.MkdirAll(*csvOut, 0o755); err != nil {
			log.Fatal(err)
		}
		csvDir = *csvOut
	}
	for _, d := range []struct {
		flag string
		dst  *string
	}{{*repDir, &reportDir}, {*audDir, &auditDir}, {*trcDir, &traceDir}, {*tsDir, &timeseriesDir}} {
		if d.flag == "" {
			continue
		}
		if err := os.MkdirAll(d.flag, 0o755); err != nil {
			log.Fatal(err)
		}
		*d.dst = d.flag
	}
	telemetryOn = *telem || reportDir != "" || auditDir != ""

	sort.Slice(registry, func(i, j int) bool { return registry[i].name < registry[j].name })

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range registry {
			fmt.Printf("  %-8s %s\n", e.name, e.what)
		}
		if *exp == "" {
			os.Exit(0)
		}
		return
	}

	var err error
	if stopProfiles, err = prof.Start(); err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	o := options{flows: *flows, seed: *seed, full: *full}
	if *exp == "all" {
		for _, e := range registry {
			runOne(e, o)
		}
		return
	}
	for _, e := range registry {
		if e.name == *exp {
			runOne(e, o)
			return
		}
	}
	log.Fatalf("unknown experiment %q (use -list)", *exp)
}

// statusTracker is the -status/-progress tracker (nil when neither is set).
var statusTracker *hermes.Status

// benchCtx carries the SIGINT/SIGTERM cancellation into every experiment
// that takes an explicit context (the chaos matrix sweep).
var benchCtx context.Context = context.Background()

// interruptOnce elects the single goroutine that reports an interrupt;
// sweeps run data points concurrently and every one of them fails with a
// cancellation at the same slice boundary.
var interruptOnce sync.Once

// stopProfiles flushes the -cpuprofile/-memprofile profiles; exit paths that
// leave through os.Exit call it because deferred calls do not run there.
var stopProfiles = func() {}

// interruptExit flushes the current experiment's partially-written table,
// reports where the run stopped, and exits 130. Never returns: losers of the
// race park until the winner's os.Exit tears the process down.
func interruptExit(err error) {
	interruptOnce.Do(func() {
		endCSVTable()
		fmt.Fprintf(os.Stderr, "\ninterrupted during %s (%v); partial tables flushed\n", currentExp, err)
		stopProfiles()
		os.Exit(130)
	})
	select {}
}

func runOne(e experiment, o options) {
	fmt.Printf("\n================ %s: %s ================\n", e.name, e.what)
	statusTracker.Note(e.name + ": " + e.what)
	currentExp, tableSeq = e.name, 0
	start := time.Now()
	e.runFn(o)
	endCSVTable()
	fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n", e.name, time.Since(start).Seconds())
}
