// Command benchmark is the repository's end-to-end benchmark. It runs one
// named workload of Hermes experiments through the public facade
// (hermes.Run, hermes.Restore), checks every run's simulated output against
// a digest, and prints the end-to-end metrics (untraced) or the per-layer
// metrics (a separate traced pass) as one JSON object on its last line.
//
//	go build -o hermes-benchmark . && ./hermes-benchmark \
//	    --workload paper-baseline --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// baseline.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/internal/sim"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user running the experiments sees; they are
// measured with every tracing hook off.
var endToEnd = []metricDef{
	{"norm_s_per_gb", "s/GB"},
	{"setup_s", "s"},
	{"max_rss_mib", "MiB"},
}

// perLayer are the traced pass's metrics, named after the modules.
var perLayer = func() []metricDef {
	d := []metricDef{{"sim.events", "count"}, {"sim.queue_peak", "count"}}
	kinds := sim.KindNames()
	for _, k := range kinds[1:] { // "other" is always empty
		d = append(d, metricDef{"sim.fires." + k, "count"})
	}
	d = append(d, metricDef{"sim.cancelled_at_peak_frac", "ratio"}, metricDef{"sim.ns_per_event", "ns"})
	for _, k := range kinds[1:] {
		d = append(d, metricDef{"sim.self_pct." + k, "%"})
	}
	return append(d,
		metricDef{"net.pkts_delivered", "count"},
		metricDef{"net.drops_port", "count"},
		metricDef{"net.drops_switch", "count"},
		metricDef{"net.ns_per_pkt", "ns"},
		metricDef{"transport.flows", "count"},
		metricDef{"transport.retransmits", "count"},
		metricDef{"transport.timeouts", "count"},
		metricDef{"transport.acks", "count"},
		metricDef{"transport.start_ns", "ns"},
		metricDef{"lb.select_calls", "count"},
		metricDef{"lb.select_ns", "ns"},
		metricDef{"lb.ack_ns", "ns"},
		metricDef{"lb.sent_ns", "ns"},
		metricDef{"lb.self_pct", "%"},
		metricDef{"lb.reps_recycled_frac", "ratio"},
		metricDef{"core.probes_sent", "count"},
		metricDef{"core.reroutes", "count"},
		metricDef{"workload.arrivals", "count"},
		metricDef{"workload.arrival_ns", "ns"},
		metricDef{"obs.sample_fires", "count"},
		metricDef{"obs.self_pct", "%"},
		metricDef{"ckpt.files", "count"},
		metricDef{"ckpt.bytes", "bytes"},
		metricDef{"ckpt.replayed_sim_frac", "ratio"},
		metricDef{"ckpt.restore_events", "count"},
		metricDef{"ckpt.restore_s", "s"},
		metricDef{"go.alloc_mib", "MiB"},
		metricDef{"go.mallocs", "count"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"trace.timer_ns", "ns"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

const (
	// minPasses is the fewest untraced passes a run measures, whatever
	// --seconds says.
	minPasses = 3
	// tracedUntracedPasses is how many untraced passes of the traced
	// pass's own inputs a traced run makes, for rates and overhead.
	tracedUntracedPasses = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-baseline, testbed-chaos, soak-restore, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measurement budget in seconds: fixes the number of passes")
	traceFlag := fs.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
	passChild := fs.Int("pass", -1, "run only this untraced pass and print its report (child of an end-to-end run)")
	refChild := fs.Bool("reference", false, "time the reference loop and print its seconds (child of an end-to-end run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	if *refChild {
		fmt.Fprintln(stdout, referenceSeconds())
		return 0
	}
	if *name == "all" {
		return runAll(*seed, *seconds, stdout, stderr)
	}
	// Checkpoint files go under the build directory, which is ignored by
	// version control.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	ckptDir, err := os.MkdirTemp(".bench_build", "ckpt-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(ckptDir)
	ws, err := buildPasses(*name, *seed, *seconds, ckptDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b := &bench{w: ws[0], passes: ws, l: newLedger(*name), out: stdout}
	if *passChild >= 0 {
		return b.passChild(*passChild, stdout, stderr)
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %d\n", *name, *seed, *traceFlag)

	var metrics map[string]float64
	var units []metricDef
	if *traceFlag == 0 {
		units = endToEnd
		metrics, err = b.endToEnd(args)
	} else {
		units = perLayer
		metrics, err = b.traced()
	}
	if err == nil {
		err = b.checksPass(ckptDir)
	}
	return emit(stdout, stderr, b.l, metrics, units, err)
}

// runAll runs every workload, end to end and traced, each in a process of
// its own so that no run inherits another's peak memory. It fails if any
// of them does.
func runAll(seed int64, seconds float64, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloadNames {
		for _, tr := range []string{"0", "1"} {
			cmd := exec.Command(exe, "--workload", w, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", tr)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s trace %s: %v\n", w, tr, err)
				code = 1
			}
		}
	}
	return code
}

// emit prints the verdict and the final JSON line. Any failed run, or an
// error such as a traced replica that computed something other than the
// facade, makes the result incorrect, withholds every metric and exits 1.
func emit(stdout, stderr io.Writer, l *ledger, values map[string]float64, defs []metricDef, err error) int {
	for _, f := range l.failures {
		fmt.Fprintln(stdout, "FAIL", f)
	}
	if err != nil {
		fmt.Fprintln(stdout, "FAIL", err)
	}
	frac := 0.0
	if l.attempted > 0 {
		frac = float64(l.failed()) / float64(l.attempted)
	}
	fmt.Fprintf(stdout, "run_fail_frac %g (%d of %d runs)\n", frac, l.failed(), l.attempted)

	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: err == nil && l.failed() == 0, Attempted: max(l.attempted, 1), Failed: l.failed(),
		Metrics: map[string]metricOut{}}
	if err != nil && l.failed() == 0 {
		out.Failed = 1
	}
	if out.Correct {
		for _, d := range defs {
			out.Metrics[d.name] = metricOut{values[d.name], d.unit}
		}
	}
	b, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintln(stderr, "benchmark:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

type bench struct {
	// passes holds one workload per untraced pass, each simulating its own
	// seed; w is the first, which simulates --seed itself.
	passes []*workload
	w      *workload
	l      *ledger
	out    io.Writer
}

// passStats is one untraced pass: every run of the workload back to back.
type passStats struct {
	wallNs int64   // the runs and the restore, verification excluded
	runNs  []int64 // each run, in workload order
	runs   []runSummary
	events uint64  // events fired by the runs (restore excluded)
	bytes  float64 // simulated goodput bytes of the runs (restore excluded)
	alloc  goAlloc // the runs and the restore, verification excluded

	restoreNs     int64
	restoreEvents uint64
}

// runSummary keeps what the per-layer table needs from a run's Result, so
// a pass does not hold earlier runs' recorders in memory.
type runSummary struct {
	simNs                       int64
	recycledSprays, freshSprays uint64
	probesSent, reroutes        uint64
	checkpoints                 []hermes.CheckpointInfo
}

func summarize(res *hermes.Result) runSummary {
	return runSummary{
		simNs: int64(res.SimDuration), recycledSprays: res.RecycledSprays,
		freshSprays: res.FreshSprays, probesSent: res.ProbesSent,
		reroutes: res.Reroutes, checkpoints: res.Checkpoints,
	}
}

// pass runs the workload once with every observability hook it does not
// itself arm left off. Each run is verified after its clock stops, and its
// Result is dropped before the next run starts.
func (b *bench) pass(w *workload) passStats {
	ps := passStats{runNs: make([]int64, len(w.runs)), runs: make([]runSummary, len(w.runs))}
	// Start every pass from a collected heap, so that no pass pays for the
	// previous pass's garbage.
	runtime.GC()
	var last *hermes.Result
	for i, r := range w.runs {
		a0 := readGoAlloc()
		t0 := time.Now()
		res, err := hermes.Run(r.cfg)
		ps.runNs[i] = time.Since(t0).Nanoseconds()
		ps.alloc = ps.alloc.add(readGoAlloc().since(a0))
		ps.wallNs += ps.runNs[i]
		last = nil
		if b.l.check(r.label, r.cfg.Seed, res, err) {
			ps.runs[i] = summarize(res)
			ps.events += res.Events
			ps.bytes += goodputBytes(res)
			last = res
		}
	}
	if w.restore {
		b.restore(w, &ps, last)
	}
	return ps
}

// restore resumes the pass's last run from its latest checkpoint and
// requires a Result byte-identical to the parent's.
func (b *bench) restore(w *workload, ps *passStats, parent *hermes.Result) {
	last := w.runs[len(w.runs)-1]
	label := last.label + "/restore"
	if parent == nil || len(parent.Checkpoints) == 0 {
		b.l.attempted++
		b.l.fail("%s: parent run wrote no checkpoint", label)
		return
	}
	a0 := readGoAlloc()
	t0 := time.Now()
	res, err := hermes.Restore(parent.Checkpoints[len(parent.Checkpoints)-1].Path)
	ps.restoreNs = time.Since(t0).Nanoseconds()
	ps.alloc = ps.alloc.add(readGoAlloc().since(a0))
	ps.wallNs += ps.restoreNs
	if !b.l.check(label, last.cfg.Seed, res, err) {
		return
	}
	ps.restoreEvents = res.Events
	same, err := sameResult(parent, res)
	if err != nil || !same {
		b.l.fail("%s: restored Result is not byte-identical to its parent (%v)", label, err)
	}
}

// checksPass runs the workload at every pinned seed with the invariant
// harness (engine invariants, packet conservation) armed, outside the timed
// passes. Whatever seeds the timed passes simulated, it holds this
// program's output, restore included, to the pinned digests.
func (b *bench) checksPass(ckptDir string) error {
	for _, seed := range pinnedSeeds {
		w, err := buildWorkload(b.w.name, seed, ckptDir)
		if err != nil {
			return err
		}
		for i := range w.runs {
			w.runs[i].cfg.Checks = true
		}
		b.pass(w)
	}
	return nil
}

// passReport is what a pass child process reports to its parent.
type passReport struct {
	WallNs    int64
	RunNs     []int64
	Events    uint64
	Bytes     float64
	RestoreNs int64
	MaxRSSMiB float64
	Attempted int
	Failures  []string
	Digests   map[string]string // by run label
}

// passChild runs untraced pass j alone in this process, so that the
// process's peak resident memory is that pass's, and prints its report.
// It prints a ready line first, when set-up is done and the first timed run
// is about to start.
func (b *bench) passChild(j int, stdout, stderr io.Writer) int {
	if j >= len(b.passes) {
		fmt.Fprintf(stderr, "benchmark: pass %d of %d\n", j, len(b.passes))
		return 2
	}
	fmt.Fprintln(stdout, "ready")
	ps := b.pass(b.passes[j])
	rss, err := maxRSSMiB()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rep := passReport{
		WallNs: ps.wallNs, RunNs: ps.runNs, Events: ps.events, Bytes: ps.bytes,
		RestoreNs: ps.restoreNs, MaxRSSMiB: rss, Attempted: b.l.attempted,
		Failures: b.l.failures, Digests: map[string]string{},
	}
	for k, d := range b.l.ref {
		rep.Digests[k.label] = d
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// childPass runs pass j in a child process of this binary and folds its
// runs into the ledger. It also returns the child's set-up time: host
// seconds from starting the process to its ready line, which covers runtime
// and package init and building the workload's configs, CDFs and scenarios.
func (b *bench) childPass(args []string, j int) (passReport, float64, error) {
	var rep passReport
	exe, err := os.Executable()
	if err != nil {
		return rep, 0, err
	}
	cmd := exec.Command(exe, append(append([]string(nil), args...), "--pass", fmt.Sprint(j))...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return rep, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return rep, 0, fmt.Errorf("pass %d: %w", j, err)
	}
	r := bufio.NewReader(pipe)
	line, lerr := r.ReadString('\n')
	setup := time.Since(t0).Seconds()
	out, rerr := io.ReadAll(r)
	if err := cmd.Wait(); err != nil {
		return rep, 0, fmt.Errorf("pass %d: %w", j, err)
	}
	if lerr != nil || line != "ready\n" || rerr != nil {
		return rep, 0, fmt.Errorf("pass %d: child printed %q first (%v, %v)", j, line, lerr, rerr)
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, 0, fmt.Errorf("pass %d: %w", j, err)
	}
	b.l.attempted += rep.Attempted
	b.l.failures = append(b.l.failures, rep.Failures...)
	seed := b.passes[j].runs[0].cfg.Seed
	for label, d := range rep.Digests {
		b.l.ref[runKey{label, seed}] = d
	}
	return rep, setup, nil
}

// endToEnd runs every untraced pass in a process of its own. args are this
// run's command-line arguments, passed on to the children.
func (b *bench) endToEnd(args []string) (map[string]float64, error) {
	n := len(b.passes)
	walls, perGB, rss, restores := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	setup, refs := make([]float64, n), make([]float64, n)
	var wallNs int64
	var goodput float64
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	for j, w := range b.passes {
		out, err := exec.Command(exe, "--reference").Output()
		if err == nil {
			refs[j], err = strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		}
		if err != nil {
			return nil, fmt.Errorf("reference loop: %w", err)
		}
		rep, setupS, err := b.childPass(args, j)
		if err != nil {
			return nil, err
		}
		setup[j] = setupS
		fmt.Fprintf(b.out, "  pass %d seed %d: %.4f s, runs %v ns, %d events (%.0f/s), %.0f goodput bytes, %.1f MiB\n",
			j, w.runs[0].cfg.Seed, float64(rep.WallNs)/1e9, rep.RunNs, rep.Events,
			eventsPerSec(rep.WallNs-rep.RestoreNs, rep.Events), rep.Bytes, rep.MaxRSSMiB)
		walls[j] = float64(rep.WallNs) / 1e9
		perGB[j] = walls[j] / (rep.Bytes / 1e9)
		wallNs += rep.WallNs
		goodput += rep.Bytes
		rss[j] = rep.MaxRSSMiB
		restores[j] = float64(rep.RestoreNs) / 1e9
	}
	b.report("wall_s (pass)", "s", walls)
	b.report("pass s/GB", "s/GB", perGB)
	// All passes' wall time over all their goodput: each pass weighs by its
	// size, and the passes' contention averages out.
	perGBAll := float64(wallNs) / goodput
	fmt.Fprintf(b.out, "  %-26s %.4f s/GB over %d passes\n", "wall_s_per_gb", perGBAll, n)
	b.report("reference loop", "s", refs)
	normPerGB := perGBAll * referenceNominalS / median(refs)
	fmt.Fprintf(b.out, "  %-26s %.4f s/GB\n", "norm_s_per_gb", normPerGB)
	b.report("setup_s", "s", setup)
	b.report("pass max RSS", "MiB", rss)
	// A pass's peak memory follows the work its seed draws; leaving out the
	// smallest and the largest pass steadies the mean.
	rssMiB := trimmedMean(rss)
	fmt.Fprintf(b.out, "  %-26s %.4f MiB, trimmed mean over %d passes\n", "max_rss_mib", rssMiB, n)
	if b.w.restore {
		b.report("restore_s", "s", restores)
	}
	b.printDigests(b.w.runs[0].cfg.Seed)
	return map[string]float64{
		"norm_s_per_gb": normPerGB,
		"setup_s":       median(setup),
		"max_rss_mib":   rssMiB,
	}, nil
}

// report prints a timing's median, quartiles and sample count.
func (b *bench) report(name, unit string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	fmt.Fprintf(b.out, "  %-26s median %.4f %s  q1 %.4f  q3 %.4f  n=%d\n", name, med, unit, q1, q3, len(xs))
}

// printDigests prints the digests of the runs that simulated seed.
func (b *bench) printDigests(seed int64) {
	var keys []runKey
	for k := range b.l.ref {
		if k.seed == seed {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].label < keys[j].label })
	for _, k := range keys {
		fmt.Fprintf(b.out, "  digest %-24s %s\n", k.label, b.l.ref[k])
	}
}

// tracedPass is one pass with every layer timed: replica runs where the
// replica can rebuild the run, facade runs with per-event profiling where
// it cannot.
type tracedPass struct {
	lt       *layerTimes
	wallNs   int64
	replicas []*replicaOut
	facade   []*hermes.Result
}

var errFidelity = errors.New("traced replica does not reproduce hermes.Run; per-layer numbers withheld")

func (b *bench) tracedPass(timerNs int64) (*tracedPass, error) {
	tp := &tracedPass{lt: &layerTimes{clock: newSpanClock(timerNs)}}
	var fidelity []string
	t0 := time.Now()
	for _, r := range b.w.runs {
		if r.replica {
			out, err := runReplica(r.cfg, tp.lt)
			if err != nil {
				return nil, err
			}
			got, err := digestOf(out.res)
			if err != nil {
				return nil, err
			}
			if want := b.l.ref[runKey{r.label, r.cfg.Seed}]; got != want {
				fidelity = append(fidelity, fmt.Sprintf("%s: replica %s, facade %s", r.label, got, want))
			}
			tp.replicas = append(tp.replicas, out)
			continue
		}
		cfg := r.cfg
		cfg.Perf = &hermes.PerfOptions{SampleEvery: 1}
		res, err := hermes.Run(cfg)
		if b.l.check(r.label, cfg.Seed, res, err) {
			tp.facade = append(tp.facade, res)
		}
	}
	if b.w.restore {
		// The untraced passes left this run's checkpoints behind; the
		// directory form resumes from the latest.
		last := b.w.runs[len(b.w.runs)-1]
		res, err := hermes.Restore(last.cfg.Checkpoint.Dir)
		b.l.check(last.label+"/restore", last.cfg.Seed, res, err)
	}
	tp.wallNs = time.Since(t0).Nanoseconds()
	if len(fidelity) > 0 {
		return nil, fmt.Errorf("%w: %v", errFidelity, fidelity)
	}
	return tp, nil
}

func (b *bench) traced() (map[string]float64, error) {
	timerNs := calibrateTimerNs()
	ps := make([]passStats, tracedUntracedPasses)
	for i := range ps {
		ps[i] = b.pass(b.w)
	}
	tp, err := b.tracedPass(timerNs)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(b.w, ps, tp)
	for _, d := range perLayer {
		fmt.Fprintf(b.out, "  %-28s %14.4f %s\n", d.name, m[d.name], d.unit)
	}
	b.printDigests(b.w.runs[0].cfg.Seed)
	return m, nil
}
