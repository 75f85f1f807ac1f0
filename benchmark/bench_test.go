package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes"
)

// tinyConfig is a run small enough for a unit test.
func tinyConfig(topo hermes.Topology, scheme hermes.Scheme, seed int64) hermes.Config {
	cfg := baseConfig(topo, scheme, seed)
	cfg.Flows = 30
	return cfg
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles of 3 = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func mustDigest(t *testing.T, res *hermes.Result) string {
	t.Helper()
	d, err := digestOf(res)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTrimmedMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{4}, 4}, {[]float64{4, 2}, 3}, {[]float64{9, 1, 2, 3, 100}, 14.0 / 3}} {
		if got := trimmedMean(c.xs); got != c.want {
			t.Errorf("trimmedMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// A digest that differs from the pinned one for its workload, label and
// seed is a failed run.
func TestLedgerFailsPinnedMismatch(t *testing.T) {
	l := newLedger("paper-baseline")
	if l.check("ecmp", 1, &hermes.Result{}, nil) || l.failed() != 1 || l.attempted != 1 {
		t.Fatalf("pinned mismatch not failed: %v", l.failures)
	}
	// A run of a pinned seed that has no pin fails too.
	if l.check("no-such-run", 1, &hermes.Result{}, nil) {
		t.Fatal("pinned seed without a pin passed")
	}
	// Seeds without pins are checked against the first digest seen.
	if !l.check("ecmp", 3, &hermes.Result{}, nil) ||
		l.check("ecmp", 3, &hermes.Result{SimDuration: 1}, nil) {
		t.Fatal("unpinned seed: first digest must pass and a different second must fail")
	}
}

// A run that arms observability is digested with what it produced, and the
// per-event profiling of the traced pass does not change that digest.
func TestDigestCoversObservability(t *testing.T) {
	topo := hermes.TestbedTopology()
	cfg := tinyConfig(topo, hermes.SchemeHermes, 1)
	sc, err := hermes.BuiltinScenario("spine-blackhole", topo)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sc
	cfg.Telemetry, cfg.TimeSeries = true, true
	cfg.Alerts = &hermes.AlertsConfig{Builtin: true}
	res, err := hermes.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Perf = &hermes.PerfOptions{SampleEvery: 1}
	profiled, err := hermes.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := mustDigest(t, res)
	if mustDigest(t, profiled) != d {
		t.Fatal("profiling changed the digest")
	}
	for name, drop := range map[string]func(r hermes.Result) hermes.Result{
		"telemetry": func(r hermes.Result) hermes.Result { r.Telemetry = nil; return r },
		"flight":    func(r hermes.Result) hermes.Result { r.TimeSeries = nil; return r },
		"alerts":    func(r hermes.Result) hermes.Result { r.Alerts = nil; return r },
	} {
		if r := drop(*res); mustDigest(t, &r) == d {
			t.Errorf("digest does not cover the %s output", name)
		}
	}
}

// The benchmark computes its rates from a run's own wall time and counts;
// for the same run they must agree with what the perf observatory reports.
func TestRatesMatchPerfReport(t *testing.T) {
	cfg := tinyConfig(hermes.TestbedTopology(), hermes.SchemeECMP, 1)
	cfg.Perf = &hermes.PerfOptions{}
	res, err := hermes.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 || res.Perf.WallNs == 0 {
		t.Fatalf("empty run: %d events in %d ns", res.Events, res.Perf.WallNs)
	}
	if got, want := eventsPerSec(res.Perf.WallNs, res.Events), res.Perf.EventsPerSec; got != want {
		t.Fatalf("eventsPerSec = %v, Result.Perf.EventsPerSec = %v", got, want)
	}
	perEvent := nsPer(res.Perf.WallNs, res.Events)
	if rate := 1e9 / perEvent; math.Abs(rate-res.Perf.EventsPerSec) > 1e-6*rate {
		t.Fatalf("ns per event %v implies %v events/s, want %v", perEvent, rate, res.Perf.EventsPerSec)
	}
	if nsPer(1, 0) != 0 || eventsPerSec(0, 1) != 0 {
		t.Fatal("rates of empty runs must be 0")
	}
}

// The replica must compute exactly what hermes.Run computes for every run
// it stands in for, at both pinned seeds.
func TestReplicaReproducesFacade(t *testing.T) {
	cut := tinyConfig(hermes.TestbedTopology(), hermes.SchemeHermes, 1)
	cut.Failure = hermes.FailureSpec{Kind: hermes.FailureCutCable, CutLeaf: 1, CutSpine: 1}
	cases := []hermes.Config{cut}
	for _, s := range []hermes.Scheme{hermes.SchemeECMP, hermes.SchemeHermes, hermes.SchemeREPS} {
		cases = append(cases, tinyConfig(hermes.LargeScaleTopology(), s, 1))
	}
	for _, seed := range []int64{1, 2} {
		for _, cfg := range cases {
			cfg.Seed = seed
			want, err := hermes.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lt := &layerTimes{clock: newSpanClock(0)}
			got, err := runReplica(cfg, lt)
			if err != nil {
				t.Fatal(err)
			}
			if mustDigest(t, got.res) != mustDigest(t, want) || got.res.Events != want.Events {
				t.Errorf("%s seed %d failure %q: replica digest/events differ from hermes.Run", cfg.Scheme, seed, cfg.Failure.Kind)
			}
			if lt.selectPath.calls == 0 || lt.startFlow.calls != uint64(cfg.Flows) {
				t.Errorf("%s: timers saw %d selects, %d flow starts", cfg.Scheme, lt.selectPath.calls, lt.startFlow.calls)
			}
		}
	}
}

// A replica that measures a different program than the facade ran must
// make the benchmark refuse its per-layer numbers.
func TestTracedRunRefusesOnReplicaMismatch(t *testing.T) {
	w := &workload{name: "tiny", runs: []runSpec{{
		label: "ecmp", cfg: tinyConfig(hermes.TestbedTopology(), hermes.SchemeECMP, 1), replica: true,
	}}}
	var out bytes.Buffer
	b := &bench{w: w, l: newLedger(w.name), out: &out}
	b.pass(w)
	if b.l.failed() != 0 {
		t.Fatalf("untraced pass failed: %v", b.l.failures)
	}
	// The replica now simulates another seed than the facade did.
	w.runs[0].cfg.Seed = 2
	tp, err := b.tracedPass(0)
	if !errors.Is(err, errFidelity) || tp != nil {
		t.Fatalf("tracedPass = %v, %v; want errFidelity", tp, err)
	}

	out.Reset()
	var values map[string]float64 // nothing may be printed even if computed
	if code := emit(&out, &out, b.l, values, perLayer, err); code == 0 {
		t.Fatal("emit exited 0 on a fidelity failure")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct bool
		Failed  int
		Metrics map[string]any
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || len(res.Metrics) != 0 {
		t.Fatalf("result line %q: want correct=false, failed>0, no metrics", lines[len(lines)-1])
	}

	// The untouched config passes the same check.
	w.runs[0].cfg.Seed = 1
	if _, err := b.tracedPass(0); err != nil {
		t.Fatalf("matching replica refused: %v", err)
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics this
// program prints, with the same units.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program has %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
		if _, err := buildWorkload(w.Name, 1, "ckpt"); err != nil {
			t.Error(err)
		}
	}
}
