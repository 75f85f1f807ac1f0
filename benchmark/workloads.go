package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime/debug"
	"strings"

	"github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/internal/metrics"
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// Every workload runs the paper's web-search mix at 0.6 of the intact
// bisection with 300 Poisson-arriving flows per run: long enough to reach
// steady state on both fabrics, short enough that a pass takes seconds.
const (
	flowsPerRun = 300
	offeredLoad = 0.6
	workloadMix = "web-search"

	// soakIntervalNs checkpoints the soak run every 250 ms of simulated time.
	soakIntervalNs = int64(250e6)

	// passSeedStride spaces the simulation seeds of a run's passes, so that
	// runs started with nearby --seed values do not share inputs.
	passSeedStride = 1_000_003
)

// nominalPassSeconds is about one untraced pass's host time on the
// machine the benchmark was defined on (2 vCPUs). --seconds divided by it
// fixes how many passes a run makes: a constant rather than a measurement,
// so a faster program measures exactly the inputs a slower one does.
var nominalPassSeconds = map[string]float64{
	"paper-baseline": 5.0,
	"testbed-chaos":  3.5,
	"soak-restore":   2.2,
}

// buildPasses returns the workload of every untraced pass of a run. Pass j
// simulates seed + j*passSeedStride, so pass 0 simulates the seed itself:
// one seed's work swings with the sizes it happens to draw from the
// heavy-tailed flow mix, and the median over passes of distinct seeds is
// steadier than any one seed.
func buildPasses(name string, seed int64, seconds float64, ckptDir string) ([]*workload, error) {
	nominal, ok := nominalPassSeconds[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	n := max(minPasses, int(seconds/nominal))
	out := make([]*workload, n)
	for j := range out {
		w, err := buildWorkload(name, seed+int64(j)*passSeedStride, ckptDir)
		if err != nil {
			return nil, err
		}
		out[j] = w
	}
	return out, nil
}

// runSpec is one simulation of a workload pass.
type runSpec struct {
	label string
	cfg   hermes.Config
	// replica marks runs the traced replica can rebuild layer by layer:
	// no scenario, telemetry, flight recorder or alerts, and at most the
	// static cut-cable failure.
	replica bool
}

// workload is the fixed list of runs one pass issues back to back.
type workload struct {
	name string
	runs []runSpec
	// restore makes each pass resume the last run from its latest
	// checkpoint and require a byte-identical Result.
	restore bool
}

var workloadNames = []string{"paper-baseline", "testbed-chaos", "soak-restore"}

func baseConfig(topo hermes.Topology, scheme hermes.Scheme, seed int64) hermes.Config {
	return hermes.Config{
		Topology: topo, Scheme: scheme, Workload: workloadMix,
		Load: offeredLoad, Flows: flowsPerRun, Seed: seed,
	}
}

// buildWorkload returns the named workload for a seed. ckptDir receives the
// soak-restore checkpoint files.
func buildWorkload(name string, seed int64, ckptDir string) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "paper-baseline":
		topo := hermes.LargeScaleTopology()
		for _, s := range []hermes.Scheme{hermes.SchemeECMP, hermes.SchemeHermes, hermes.SchemeREPS} {
			w.runs = append(w.runs, runSpec{label: string(s), cfg: baseConfig(topo, s, seed), replica: true})
		}
	case "testbed-chaos":
		topo := hermes.TestbedTopology()
		for _, s := range []hermes.Scheme{hermes.SchemeHermes, hermes.SchemeREPS} {
			sc, err := hermes.BuiltinScenario("spine-blackhole", topo)
			if err != nil {
				return nil, err
			}
			cfg := baseConfig(topo, s, seed)
			cfg.Scenario = sc
			cfg.Telemetry = true
			cfg.TimeSeries = true
			cfg.Alerts = &hermes.AlertsConfig{Builtin: true}
			w.runs = append(w.runs, runSpec{label: string(s) + "/spine-blackhole", cfg: cfg})
		}
		// Fig 10's static cut: the legacy FailureSpec injection path.
		cfg := baseConfig(topo, hermes.SchemeHermes, seed)
		cfg.Failure = hermes.FailureSpec{Kind: hermes.FailureCutCable, CutLeaf: 1, CutSpine: 1}
		w.runs = append(w.runs, runSpec{label: "hermes/cut-cable", cfg: cfg, replica: true})
	case "soak-restore":
		cfg := baseConfig(hermes.TestbedTopology(), hermes.SchemeHermes, seed)
		cfg.Checkpoint = &hermes.CheckpointConfig{Dir: filepath.Join(ckptDir, "soak"), IntervalNs: soakIntervalNs}
		w.runs = []runSpec{{label: "hermes", cfg: cfg, replica: true}}
		w.restore = true
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

// digestFields is the simulated output a digest covers. Result.Events is
// left out on purpose: a change that fires stale timer wakeups moves the
// event count without changing what the simulation computed. Runs that arm
// observability also cover what it produced, so that a cheaper sampler must
// still sample the same values.
type digestFields struct {
	FCT               metrics.Report
	SimDurationNs     int64
	GoodputGbps       float64
	FabricUtilization float64

	Reroutes, TimeoutReroutes, FailureReroutes uint64
	ProbesSent, ProbeBytes                     uint64
	ProbeOverhead                              float64

	RecycledSprays, FreshSprays, EntropyEvictions uint64
	ReplicatedFlows, ReplicaWins, RedundantBytes  uint64

	Recovery *hermes.Recovery

	// Observability hashes what the observability layers the run armed
	// produced; it is empty, and left out, for runs that arm none, which
	// keeps their digests as they were.
	Observability string `json:",omitempty"`
}

// digestOf hashes a run's simulated output. It fails only when an output
// cannot be encoded, such as a NaN in a JSON-encoded value.
func digestOf(res *hermes.Result) (string, error) {
	obs, err := observabilityDigest(res)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(digestFields{
		FCT: res.FCT, SimDurationNs: int64(res.SimDuration),
		GoodputGbps: res.GoodputGbps, FabricUtilization: res.FabricUtilization,
		Reroutes: res.Reroutes, TimeoutReroutes: res.TimeoutReroutes,
		FailureReroutes: res.FailureReroutes,
		ProbesSent:      res.ProbesSent, ProbeBytes: res.ProbeBytes,
		ProbeOverhead:  res.ProbeOverhead,
		RecycledSprays: res.RecycledSprays, FreshSprays: res.FreshSprays,
		EntropyEvictions: res.EntropyEvictions,
		ReplicatedFlows:  res.ReplicatedFlows, ReplicaWins: res.ReplicaWins,
		RedundantBytes: res.RedundantBytes,
		Recovery:       res.Recovery,
		Observability:  obs,
	})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// observabilityDigest hashes the deterministic output of the observability
// layers a run armed: the telemetry registry totals, histograms, swept
// series and audit summary; the flight recorder's samples and Hermes
// transition log; the SLO watchdog's alert report. The flight recorder's
// perf.* series are left out: they exist only when Config.Perf is set, and
// they count engine events, which the digest leaves out. Series are hashed
// by their bits through a small buffer, so NaN samples are covered.
func observabilityDigest(res *hermes.Result) (string, error) {
	if res.Telemetry == nil && res.TimeSeries == nil && res.Alerts == nil {
		return "", nil
	}
	// The recorder hands out a copy of every series. Collecting them as
	// the hash goes keeps checking a run from raising the process's peak
	// memory, which max_rss_mib reports.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	// Writes to a hash never fail, so neither do the buffered writes below.
	h := sha256.New()
	w := bufio.NewWriterSize(h, 32<<10)
	var buf [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		w.Write(buf[:])
	}
	series := func(name string, xs []float64) {
		num(uint64(len(name)))
		w.WriteString(name)
		num(uint64(len(xs)))
		for _, x := range xs {
			num(math.Float64bits(x))
		}
	}
	times := func(ts []int64) {
		num(uint64(len(ts)))
		for _, t := range ts {
			num(uint64(t))
		}
	}
	small := struct {
		Counters    map[string]float64
		Histograms  map[string]telemetry.HistogramStats
		Audit       telemetry.AuditSummary
		Alerts      *hermes.AlertReport
		Truncated   int
		Transitions []timeseries.Transition
	}{Alerts: res.Alerts}
	var tel telemetry.Report
	if res.Telemetry != nil {
		res.Telemetry.Fill(&tel)
		small.Counters, small.Histograms, small.Audit = tel.Counters, tel.Histograms, tel.Audit
	}
	if fr := res.TimeSeries; fr != nil {
		small.Truncated, small.Transitions = fr.TruncatedSamples(), fr.Transitions()
	}
	if err := json.NewEncoder(w).Encode(small); err != nil {
		return "", fmt.Errorf("observability digest: %w", err)
	}
	times(tel.SeriesTimesNs)
	for _, s := range tel.Series {
		series(s.Name, s.Values)
	}
	if fr := res.TimeSeries; fr != nil {
		times(fr.Times())
		for _, name := range fr.Names() {
			if !strings.HasPrefix(name, "perf.") {
				series(name, fr.Series(name))
			}
		}
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil)), nil
}

// goodputBytes is the payload a run's finished flows delivered. The digest
// pins it, so it measures a pass's simulated work the same way for every
// correct version of the program.
func goodputBytes(res *hermes.Result) float64 {
	return res.GoodputGbps * float64(res.SimDuration) / 8
}

// runKey names one simulation: a run label at a simulation seed.
type runKey struct {
	label string
	seed  int64
}

// ledger is the output-correctness gate: every run attempted, every
// failure with its reason, and the reference digest of every simulation.
type ledger struct {
	workload  string
	ref       map[runKey]string
	attempted int
	failures  []string
}

func newLedger(workload string) *ledger {
	return &ledger{workload: workload, ref: map[runKey]string{}}
}

// check records one attempted run. A run fails when it returned an error,
// when its digest differs from the pinned digest for its seed (a run of a
// pinned seed without a pin fails too), or when it differs from the first
// digest this process saw for the same label and seed.
func (l *ledger) check(label string, seed int64, res *hermes.Result, err error) bool {
	l.attempted++
	if err != nil {
		l.fail("%s seed %d: %v", label, seed, err)
		return false
	}
	d, err := digestOf(res)
	if err != nil {
		l.fail("%s seed %d: %v", label, seed, err)
		return false
	}
	if pins, ok := pinnedDigests[l.workload][seed]; ok && d != pins[label] {
		l.fail("%s seed %d: digest %s, pinned %q", label, seed, d, pins[label])
		return false
	}
	k := runKey{label, seed}
	if want, ok := l.ref[k]; ok && d != want {
		l.fail("%s seed %d: digest %s differs from this process's first run %s", label, seed, d, want)
		return false
	}
	l.ref[k] = d
	return true
}

// fail records a failure found after a run was counted, such as a restore
// whose Result is not byte-identical to its parent's.
func (l *ledger) fail(format string, args ...any) {
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
}

func (l *ledger) failed() int { return len(l.failures) }

// sameResult reports whether two Results serialize to identical bytes.
func sameResult(a, b *hermes.Result) (bool, error) {
	ja, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return string(ja) == string(jb), nil
}
