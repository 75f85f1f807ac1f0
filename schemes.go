package hermes

import (
	"fmt"
	"sort"

	"github.com/hermes-repro/hermes/internal/core"
	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/timeseries"
	"github.com/hermes-repro/hermes/internal/transport"
)

// wiring bundles the scheme-specific assembly steps of Run.
type wiring struct {
	balancerFor    func(h *net.Host) transport.Balancer
	afterTransport func(nw *net.Network, rng *sim.RNG)
	fillTelemetry  func(res *Result, eng *sim.Engine)

	// dumpState returns the scheme's checkpoint-visible control state (nil =
	// the scheme keeps no state beyond what the fabric and transport dumps
	// already cover). Everything returned must marshal deterministically.
	dumpState func() any
	// stop retires the scheme's periodic machinery (monitor windows, probe
	// loops) when a what-if fork replaces it mid-run. nil = nothing to stop.
	stop func()
	// attachFlight registers the scheme's flight-recorder series and hooks.
	// Kept separate from construction because hooking a scheme into the
	// recorder can change checkpoint-visible state (Hermes transition
	// tracking): a fork replay builds the scheme flight-blind to match the
	// parent run and attaches only at the fork instant. nil = no series.
	attachFlight func(*timeseries.Recorder)
}

func noAfter(*net.Network, *sim.RNG)   {}
func noTelemetry(*Result, *sim.Engine) {}

func buildScheme(nw *net.Network, rng *sim.RNG, cfg Config, rd *telemetry.RunData,
	flight *timeseries.Recorder) (*wiring, error) {
	flowlet := sim.Time(cfg.FlowletTimeoutNs)
	if flowlet <= 0 {
		flowlet = 150 * sim.Microsecond
	}
	w := &wiring{afterTransport: noAfter, fillTelemetry: noTelemetry}

	switch cfg.Scheme {
	case SchemeECMP:
		e := &lb.ECMP{Net: nw}
		w.balancerFor = func(*net.Host) transport.Balancer { return e }

	case SchemeWCMP:
		e := &lb.WCMP{Net: nw}
		w.balancerFor = func(*net.Host) transport.Balancer { return e }

	case SchemePresto:
		w.balancerFor = func(*net.Host) transport.Balancer {
			return &lb.Spray{Net: nw, SchemeName: "Presto*", WeightByCapacity: true}
		}

	case SchemeDRB:
		w.balancerFor = func(*net.Host) transport.Balancer {
			return &lb.Spray{Net: nw, SchemeName: "DRB"}
		}

	case SchemeCLOVE:
		params := lb.DefaultCloveParams()
		params.FlowletTimeout = flowlet
		w.balancerFor = func(*net.Host) transport.Balancer {
			return &lb.Clove{Net: nw, Rng: rng, Params: params}
		}

	case SchemeFlowBender:
		w.balancerFor = func(*net.Host) transport.Balancer {
			return lb.DefaultFlowBender(nw)
		}

	case SchemeLetFlow:
		for l := range nw.Leaves {
			lb.NewLetFlow(nw, l, rng, flowlet)
		}
		w.balancerFor = passThrough("LetFlow")

	case SchemeDRILL:
		for l := range nw.Leaves {
			lb.NewDRILL(nw, l, rng)
		}
		w.balancerFor = passThrough("DRILL")

	case SchemeEdgeFlowlet:
		w.balancerFor = func(*net.Host) transport.Balancer {
			return &lb.EdgeFlowlet{Net: nw, Rng: rng, Timeout: flowlet}
		}

	case SchemeHULA:
		p := lb.DefaultHulaParams()
		p.FlowletTimeout = flowlet
		lb.InstallHula(nw, rng, p)
		w.balancerFor = passThrough("HULA")

	case SchemeCONGA:
		p := lb.DefaultCongaParams()
		p.FlowletTimeout = flowlet
		lb.InstallConga(nw, rng, p)
		w.balancerFor = passThrough("CONGA")

	case SchemeMPTCP:
		// MPTCP subflows are hashed like ECMP flows and, like any ECMP flow,
		// pick their path once and are never rerouted — not even when the
		// path fails mid-flow (pinned by TestMPTCPSubflowsNeverRerouted); the
		// multipath behaviour lives in the transport (StartMPTCP).
		e := &lb.ECMP{Net: nw}
		w.balancerFor = func(*net.Host) transport.Balancer { return e }

	case SchemeREPS:
		return buildReps(nw, rd, flight), nil

	case SchemeRepFlow:
		// Path selection is plain ECMP; the replication machinery lives in
		// the transport (StartRepFlow, installed by Run's generator hook)
		// and its observability in attachRepFlowObservability.
		e := &lb.ECMP{Net: nw}
		w.balancerFor = func(*net.Host) transport.Balancer { return e }

	case SchemeHermes:
		return buildHermes(nw, rng, cfg, rd, flight)

	default:
		return nil, fmt.Errorf("hermes: unknown scheme %q", cfg.Scheme)
	}
	return w, nil
}

func passThrough(name string) func(*net.Host) transport.Balancer {
	return func(*net.Host) transport.Balancer { return &lb.PassThrough{Scheme: name} }
}

// buildReps wires one REPS balancer per host and, when observability is on,
// registers the recycled-vs-fresh spray gauges and flight series. All gauges
// sum integer counters over a host-ordered slice (transport.New calls
// balancerFor in nw.Hosts order), so sampling is deterministic. Registration
// is gated on the scheme, keeping every other scheme's report byte-stable.
func buildReps(nw *net.Network, rd *telemetry.RunData,
	flight *timeseries.Recorder) *wiring {
	var instances []*lb.Reps
	w := &wiring{afterTransport: noAfter}
	w.balancerFor = func(h *net.Host) transport.Balancer {
		r := lb.NewReps(nw, 0)
		instances = append(instances, r)
		return r
	}

	sumOver := func(pick func(*lb.Reps) uint64) func() float64 {
		return func() float64 {
			var n uint64
			for _, r := range instances {
				n += pick(r)
			}
			return float64(n)
		}
	}
	recycled := sumOver(func(r *lb.Reps) uint64 { return r.RecycledSprays })
	fresh := sumOver(func(r *lb.Reps) uint64 { return r.FreshSprays })
	shared := []gauge{
		{"reps.recycled_sprays_total", recycled},
		{"reps.fresh_sprays_total", fresh},
		{"reps.evictions_total", sumOver(func(r *lb.Reps) uint64 { return r.Evictions })},
		{"reps.cached_entropies", func() float64 {
			var n int
			for _, r := range instances {
				n += r.CachedEntropies()
			}
			return float64(n)
		}},
	}
	reg := registryOf(rd)
	register(reg, nil, shared)
	reg.GaugeFunc("reps.cache_hit_rate", func() float64 {
		rec, fr := recycled(), fresh()
		if rec+fr == 0 {
			return 0
		}
		return rec / (rec + fr)
	})
	w.attachFlight = func(f *timeseries.Recorder) { register(nil, f, shared) }
	if flight != nil {
		w.attachFlight(flight)
	}

	w.fillTelemetry = func(res *Result, eng *sim.Engine) {
		for _, r := range instances {
			res.RecycledSprays += r.RecycledSprays
			res.FreshSprays += r.FreshSprays
			res.EntropyEvictions += r.Evictions
		}
	}
	w.dumpState = func() any {
		out := make([]*lb.RepsDump, len(instances))
		for i, r := range instances {
			out[i] = r.Dump()
		}
		return out
	}
	return w
}

// attachRepFlowObservability registers the transport's replication counters
// on the telemetry registry and flight recorder. Called by Run only for
// SchemeRepFlow, after the transport exists, so no other scheme's report
// gains these keys.
func attachRepFlowObservability(tr *transport.Transport, rd *telemetry.RunData,
	flight *timeseries.Recorder) {
	register(registryOf(rd), flight, []gauge{
		{"repflow.replicated_total", func() float64 { return float64(tr.RepFlowsStarted) }},
		{"repflow.replica_wins_total", func() float64 { return float64(tr.ReplicaWins) }},
		{"repflow.cancelled_total", func() float64 { return float64(tr.FlowsCancelled) }},
		{"repflow.redundant_bytes_total", func() float64 { return float64(tr.RedundantBytes) }},
	})
}

// gauge is one named pull probe, declared once and registered on each sink
// a run arms.
type gauge struct {
	name string
	fn   func() float64
}

// register shares gs between the report registry and the flight recorder;
// either may be nil.
func register(reg *telemetry.Registry, flight *timeseries.Recorder, gs []gauge) {
	for _, g := range gs {
		telemetry.Share(reg, flight, g.name, g.fn)
	}
}

// registryOf returns the run's metric registry, nil with telemetry off.
func registryOf(rd *telemetry.RunData) *telemetry.Registry {
	if rd == nil {
		return nil
	}
	return rd.Registry
}

func buildHermes(nw *net.Network, rng *sim.RNG, cfg Config, rd *telemetry.RunData,
	flight *timeseries.Recorder) (*wiring, error) {
	var params core.Params
	if cfg.HermesParams != nil {
		params = *cfg.HermesParams
	} else {
		params = core.DefaultParams(nw)
		if cfg.Protocol == "reno" || cfg.Protocol == "timely" {
			// §5.4: without DCTCP marking Hermes senses by RTT only and
			// relaxes the RTT thresholds by 1.5x (burstier, larger RTTs).
			params.UseECN = false
			params.TRTTHigh += params.TRTTHigh / 2
			params.DeltaRTT += params.DeltaRTT / 2
		}
	}

	reg := registryOf(rd)
	var audit *telemetry.AuditLog
	if rd != nil {
		audit = rd.Audit
	}

	monitors := make([]*core.Monitor, nw.Cfg.Leaves)
	for l := range monitors {
		monitors[l] = core.NewMonitor(nw, l, params)
		monitors[l].Audit = audit
	}
	instances := map[int]*core.Hermes{}

	w := &wiring{}
	w.balancerFor = func(h *net.Host) transport.Balancer {
		inst := core.New(monitors[h.Leaf], rng, h.ID)
		inst.AttachTelemetry(reg, audit)
		instances[h.ID] = inst
		return inst
	}

	// Cumulative reroute counters, sampled by both sinks. The chaos recovery
	// analysis reads them from the flight recorder: the first post-onset
	// increase of timeout+failure reroutes is the time-to-reroute. Sums are
	// over integer counters, so map iteration order cannot perturb them.
	sumOver := func(pick func(*core.Hermes) uint64) func() float64 {
		return func() float64 {
			var n uint64
			for _, inst := range instances {
				n += pick(inst)
			}
			return float64(n)
		}
	}
	reroutes := []gauge{
		{"hermes.reroutes_total", sumOver(func(i *core.Hermes) uint64 { return i.Reroutes })},
		{"hermes.timeout_reroutes_total", sumOver(func(i *core.Hermes) uint64 { return i.TimeoutReroutes })},
		{"hermes.failure_reroutes_total", sumOver(func(i *core.Hermes) uint64 { return i.FailureReroutes })},
	}
	var probers []*core.Prober
	if reg != nil {
		register(reg, nil, reroutes)
		attachHermesGauges(reg, monitors, &probers)
	}
	w.attachFlight = func(f *timeseries.Recorder) {
		register(nil, f, reroutes)
		attachHermesFlight(f, monitors)
	}
	if flight != nil {
		w.attachFlight(flight)
	}
	w.afterTransport = func(nw *net.Network, rng *sim.RNG) {
		if params.ProbeInterval <= 0 {
			return
		}
		core.InstallProbeResponders(nw)
		// One probe agent per rack: the first host under each leaf.
		agents := make([]*net.Host, nw.Cfg.Leaves)
		for l := range agents {
			agents[l] = nw.Hosts[l*nw.Cfg.HostsPerLeaf]
		}
		for l := range agents {
			probers = append(probers, core.NewProber(monitors[l], rng, agents))
		}
	}

	w.fillTelemetry = func(res *Result, eng *sim.Engine) {
		for _, inst := range instances {
			res.Reroutes += inst.Reroutes
			res.TimeoutReroutes += inst.TimeoutReroutes
			res.FailureReroutes += inst.FailureReroutes
		}
		for _, p := range probers {
			res.ProbesSent += p.ProbesSent
			res.ProbeBytes += p.ProbeBytes
		}
		if res.SimDuration > 0 && nw.Cfg.HostRateBps > 0 && len(probers) > 0 {
			// Overhead of one agent's probe traffic over its access link.
			perAgent := float64(res.ProbeBytes) / float64(len(probers))
			bps := perAgent * 8 * float64(sim.Second) / float64(res.SimDuration)
			res.ProbeOverhead = bps / float64(nw.Cfg.HostRateBps)
		}
	}
	w.dumpState = func() any {
		d := &hermesSchemeDump{}
		for _, m := range monitors {
			d.Monitors = append(d.Monitors, m.Dump())
		}
		for _, p := range probers {
			d.Probers = append(d.Probers, p.Dump())
		}
		hosts := make([]int, 0, len(instances))
		for h := range instances {
			hosts = append(hosts, h)
		}
		sort.Ints(hosts)
		for _, h := range hosts {
			inst := instances[h]
			d.Hosts = append(d.Hosts, hermesHostDump{
				Host: h, Reroutes: inst.Reroutes,
				TimeoutReroutes: inst.TimeoutReroutes,
				FailureReroutes: inst.FailureReroutes,
			})
		}
		return d
	}
	w.stop = func() {
		for _, p := range probers {
			p.Stop()
		}
		for _, m := range monitors {
			m.Stop()
		}
	}
	return w, nil
}

// hermesSchemeDump is the Hermes control plane's checkpoint section: every
// rack monitor's sensing table, every prober's overhead state, and the
// per-host reroute counters in host order.
type hermesSchemeDump struct {
	Monitors []*core.MonitorDump `json:"monitors"`
	Probers  []*core.ProberDump  `json:"probers"`
	Hosts    []hermesHostDump    `json:"hosts"`
}

type hermesHostDump struct {
	Host            int    `json:"host"`
	Reroutes        uint64 `json:"reroutes"`
	TimeoutReroutes uint64 `json:"timeout_reroutes"`
	FailureReroutes uint64 `json:"failure_reroutes"`
}

// attachHermesFlight wires the Hermes control plane into the flight
// recorder: a per-leaf Algorithm 1 path census (good/gray/congested/failed
// counts sampled every interval) and the path-state transition log. Monitor
// intake sites report transitions as they happen; the per-tick scan catches
// the one change that happens between events, quarantine expiry, so a
// failed->gray flip is recorded within one sampling interval.
func attachHermesFlight(flight *timeseries.Recorder, monitors []*core.Monitor) {
	for l, m := range monitors {
		l, m := l, m
		leafLabel := fmt.Sprintf("%d", l)
		census := func(pick func(good, gray, congested, failed int) int) func() float64 {
			return func() float64 { return float64(pick(m.PathCensus())) }
		}
		flight.Register(telemetry.Key("hermes.paths_good", "leaf", leafLabel),
			census(func(g, _, _, _ int) int { return g }))
		flight.Register(telemetry.Key("hermes.paths_gray", "leaf", leafLabel),
			census(func(_, g, _, _ int) int { return g }))
		flight.Register(telemetry.Key("hermes.paths_congested", "leaf", leafLabel),
			census(func(_, _, c, _ int) int { return c }))
		flight.Register(telemetry.Key("hermes.paths_failed", "leaf", leafLabel),
			census(func(_, _, _, f int) int { return f }))
		m.OnTransition = func(dstLeaf, path int, from, to core.PathType, cause string) {
			flight.AddTransition(timeseries.Transition{
				AtNs: int64(m.Net.Eng.Now()), Leaf: l, Dst: dstLeaf, Path: path,
				From: from.String(), To: to.String(), Cause: cause,
			})
		}
		flight.AtTick(func() { m.ScanTransitions(timeseries.CauseHoldExpired) })
	}
}

// attachHermesGauges registers the report's pull-style metrics over the
// Hermes control plane beyond the shared reroute counters: failure-mark
// events, probe totals, and the fabric-wide Algorithm 1 path census (how
// many (dstLeaf, path) pairs the monitors currently classify
// good/gray/congested/failed). Pull gauges cost nothing on the hot path;
// the report recorder evaluates them once per interval.
func attachHermesGauges(reg *telemetry.Registry, monitors []*core.Monitor,
	probers *[]*core.Prober) {
	reg.GaugeFunc("hermes.fail_marks_total", func() float64 {
		var n uint64
		for _, m := range monitors {
			n += m.FailMarkEvents
		}
		return float64(n)
	})
	sumProbers := func(pick func(*core.Prober) uint64) func() float64 {
		return func() float64 {
			var n uint64
			for _, p := range *probers {
				n += pick(p)
			}
			return float64(n)
		}
	}
	reg.GaugeFunc("hermes.probes_sent_total", sumProbers(func(p *core.Prober) uint64 { return p.ProbesSent }))
	reg.GaugeFunc("hermes.probes_lost_total", sumProbers(func(p *core.Prober) uint64 { return p.ProbesLost }))
	reg.GaugeFunc("hermes.probe_bytes_total", sumProbers(func(p *core.Prober) uint64 { return p.ProbeBytes }))
	census := func(pick func(good, gray, congested, failed int) int) func() float64 {
		return func() float64 {
			var n int
			for _, m := range monitors {
				n += pick(m.PathCensus())
			}
			return float64(n)
		}
	}
	reg.GaugeFunc("hermes.paths_good", census(func(g, _, _, _ int) int { return g }))
	reg.GaugeFunc("hermes.paths_gray", census(func(_, g, _, _ int) int { return g }))
	reg.GaugeFunc("hermes.paths_congested", census(func(_, _, c, _ int) int { return c }))
	reg.GaugeFunc("hermes.paths_failed", census(func(_, _, _, f int) int { return f }))
}
