package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/internal/core"
	"github.com/hermes-repro/hermes/internal/failure"
	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/metrics"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
	wl "github.com/hermes-repro/hermes/internal/workload"
)

// The traced replica rebuilds a run from the layers' public constructors in
// the order hermes.Run uses for ecmp, hermes and reps (engine, fabric,
// balancers, transport, probers, generator), so that calls into each layer
// can be timed from outside the program. It is only worth its numbers while
// it computes what hermes.Run computes, so every traced run is compared
// against the facade's digest before anything is reported.

// layerStat accumulates the timed calls into one layer entry point.
type layerStat struct {
	calls   uint64
	rawNs   int64 // wall time between each call's two clock reads
	childNs int64 // part of rawNs spent in timed calls nested inside
}

// selfNs is the time spent in the layer itself: raw time minus nested
// timed calls minus the calibrated cost of the timer.
func (st *layerStat) selfNs(timerNs int64) int64 {
	s := st.rawNs - st.childNs - int64(st.calls)*timerNs
	if s < 0 {
		return 0
	}
	return s
}

func (st *layerStat) perCallNs(timerNs int64) float64 {
	return nsPer(st.selfNs(timerNs), st.calls)
}

// spanClock times nested calls. Each open call accumulates the time of the
// timed calls inside it, so a layer is charged only its own work.
type spanClock struct {
	origin  time.Time
	timerNs int64
	open    []int64
}

func newSpanClock(timerNs int64) *spanClock {
	return &spanClock{origin: time.Now(), timerNs: timerNs, open: make([]int64, 0, 8)}
}

func (c *spanClock) begin() int64 {
	c.open = append(c.open, 0)
	return int64(time.Since(c.origin))
}

func (c *spanClock) end(st *layerStat, t0 int64) {
	d := int64(time.Since(c.origin)) - t0
	n := len(c.open) - 1
	st.calls++
	st.rawNs += d
	st.childNs += c.open[n]
	c.open = c.open[:n]
	if n > 0 {
		// The enclosing call also paid for this call's clock reads, which
		// fall outside d; one timer cost approximates them.
		c.open[n-1] += d + c.timerNs
	}
}

// layerTimes holds every timed entry point of one traced pass.
type layerTimes struct {
	clock *spanClock

	engineRun  layerStat // sim: Engine.Run, one call per 10 ms slice
	startFlow  layerStat // transport: Transport.StartFlow from the generator
	selectPath layerStat // lb/core: Balancer.SelectPath
	onSent     layerStat // lb/core: Balancer.OnSent
	onAck      layerStat // lb/core: Balancer.OnAck, one call per ACK
	onOther    layerStat // lb/core: OnFlowStart/OnFlowDone/OnRetransmit/OnTimeout
}

func (lt *layerTimes) balancerSelfNs() int64 {
	t := lt.clock.timerNs
	return lt.selectPath.selfNs(t) + lt.onSent.selfNs(t) + lt.onAck.selfNs(t) + lt.onOther.selfNs(t)
}

// timedBalancer times every call into the balancer it wraps and otherwise
// passes it through unchanged.
type timedBalancer struct {
	inner transport.Balancer
	lt    *layerTimes
}

func (b *timedBalancer) Name() string { return b.inner.Name() }

func (b *timedBalancer) SelectPath(f *transport.Flow) int {
	t0 := b.lt.clock.begin()
	p := b.inner.SelectPath(f)
	b.lt.clock.end(&b.lt.selectPath, t0)
	return p
}

func (b *timedBalancer) OnSent(f *transport.Flow, path, bytes int) {
	t0 := b.lt.clock.begin()
	b.inner.OnSent(f, path, bytes)
	b.lt.clock.end(&b.lt.onSent, t0)
}

func (b *timedBalancer) OnAck(f *transport.Flow, ev transport.AckEvent) {
	t0 := b.lt.clock.begin()
	b.inner.OnAck(f, ev)
	b.lt.clock.end(&b.lt.onAck, t0)
}

func (b *timedBalancer) OnRetransmit(f *transport.Flow, path int) {
	t0 := b.lt.clock.begin()
	b.inner.OnRetransmit(f, path)
	b.lt.clock.end(&b.lt.onOther, t0)
}

func (b *timedBalancer) OnTimeout(f *transport.Flow, path int) {
	t0 := b.lt.clock.begin()
	b.inner.OnTimeout(f, path)
	b.lt.clock.end(&b.lt.onOther, t0)
}

func (b *timedBalancer) OnFlowStart(f *transport.Flow) {
	t0 := b.lt.clock.begin()
	b.inner.OnFlowStart(f)
	b.lt.clock.end(&b.lt.onOther, t0)
}

func (b *timedBalancer) OnFlowDone(f *transport.Flow) {
	t0 := b.lt.clock.begin()
	b.inner.OnFlowDone(f)
	b.lt.clock.end(&b.lt.onOther, t0)
}

// nopBalancer is the empty call the timer is calibrated against.
type nopBalancer struct{ transport.BaseBalancer }

func (nopBalancer) Name() string                   { return "nop" }
func (nopBalancer) SelectPath(*transport.Flow) int { return 0 }

// calibrateTimerNs returns the raw time a timed call to an empty balancer
// method records: the cost every per-call layer time is reduced by. The
// median of several rounds keeps a preempted round from skewing it.
func calibrateTimerNs() int64 {
	const rounds, calls = 7, 200_000
	var f transport.Flow
	per := make([]float64, rounds)
	for r := range per {
		lt := &layerTimes{clock: newSpanClock(0)}
		b := &timedBalancer{inner: nopBalancer{}, lt: lt}
		for i := 0; i < calls; i++ {
			b.SelectPath(&f)
		}
		per[r] = float64(lt.selectPath.rawNs) / calls
	}
	return int64(median(per) + 0.5)
}

// replicaOut is what one traced replica run measured.
type replicaOut struct {
	res       *hermes.Result
	prof      *sim.Profile
	pkts      net.PacketStats
	tr        *transport.Transport
	arrivals  int
	peakDepth int // largest pending queue seen at a slice boundary
	// cancelledAtPeak is the cancelled share of the queue at that boundary.
	cancelledAtPeak float64
}

// schemeParts is the scheme-specific assembly of a replica run.
type schemeParts struct {
	balancerFor    func(h *net.Host) transport.Balancer
	afterTransport func()
	fill           func(res *hermes.Result)
}

func buildSchemeParts(nw *net.Network, rng *sim.RNG, scheme hermes.Scheme) (*schemeParts, error) {
	p := &schemeParts{afterTransport: func() {}, fill: func(*hermes.Result) {}}
	switch scheme {
	case hermes.SchemeECMP:
		e := &lb.ECMP{Net: nw}
		p.balancerFor = func(*net.Host) transport.Balancer { return e }
	case hermes.SchemeREPS:
		var instances []*lb.Reps
		p.balancerFor = func(*net.Host) transport.Balancer {
			r := lb.NewReps(nw, 0)
			instances = append(instances, r)
			return r
		}
		p.fill = func(res *hermes.Result) {
			for _, r := range instances {
				res.RecycledSprays += r.RecycledSprays
				res.FreshSprays += r.FreshSprays
				res.EntropyEvictions += r.Evictions
			}
		}
	case hermes.SchemeHermes:
		params := core.DefaultParams(nw)
		monitors := make([]*core.Monitor, nw.Cfg.Leaves)
		for l := range monitors {
			monitors[l] = core.NewMonitor(nw, l, params)
		}
		var instances []*core.Hermes
		var probers []*core.Prober
		p.balancerFor = func(h *net.Host) transport.Balancer {
			inst := core.New(monitors[h.Leaf], rng, h.ID)
			instances = append(instances, inst)
			return inst
		}
		p.afterTransport = func() {
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
		p.fill = func(res *hermes.Result) {
			for _, inst := range instances {
				res.Reroutes += inst.Reroutes
				res.TimeoutReroutes += inst.TimeoutReroutes
				res.FailureReroutes += inst.FailureReroutes
			}
			for _, pr := range probers {
				res.ProbesSent += pr.ProbesSent
				res.ProbeBytes += pr.ProbeBytes
			}
			if res.SimDuration > 0 && nw.Cfg.HostRateBps > 0 && len(probers) > 0 {
				perAgent := float64(res.ProbeBytes) / float64(len(probers))
				bps := perAgent * 8 * float64(sim.Second) / float64(res.SimDuration)
				res.ProbeOverhead = bps / float64(nw.Cfg.HostRateBps)
			}
		}
	default:
		return nil, fmt.Errorf("replica: scheme %q is not replicated", scheme)
	}
	return p, nil
}

// runReplica runs cfg through the replica with every layer entry point
// timed into lt and the engine profiling every event.
func runReplica(cfg hermes.Config, lt *layerTimes) (*replicaOut, error) {
	if cfg.Scenario != nil || cfg.Telemetry || cfg.TimeSeries || cfg.Alerts != nil {
		return nil, fmt.Errorf("replica: observability and scenarios are not replicated")
	}
	dist, err := wl.ByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	prof := eng.EnableProfile(1)
	rng := sim.NewRNG(cfg.Seed)
	t := cfg.Topology
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: t.Leaves, Spines: t.Spines, HostsPerLeaf: t.HostsPerLeaf,
		HostRateBps: t.HostRateBps, FabricRateBps: t.FabricRateBps,
		HostDelay: t.HostDelayNs, FabricDelay: t.FabricDelayNs,
		QueueFactor: t.QueueFactor, CablesPerLink: t.CablesPerLink,
	})
	if err != nil {
		return nil, err
	}
	// Load is normalized to the intact fabric, measured before any cut.
	baseBisection := nw.BisectionBps()
	switch cfg.Failure.Kind {
	case hermes.FailureNone:
	case hermes.FailureCutCable:
		failure.CutCable(nw, cfg.Failure.CutLeaf, cfg.Failure.CutSpine, max(cfg.Failure.CutCable, 0))
	default:
		return nil, fmt.Errorf("replica: failure %q is not replicated", cfg.Failure.Kind)
	}

	parts, err := buildSchemeParts(nw, rng, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	tr := transport.New(nw, transport.DefaultOptions(), func(h *net.Host) transport.Balancer {
		return &timedBalancer{inner: parts.balancerFor(h), lt: lt}
	})
	parts.afterTransport()

	rec := &metrics.FCTRecorder{}
	baseRTT, hostRate := nw.ApproxBaseRTT(), nw.Cfg.HostRateBps
	rec.IdealFCT = func(size int64) sim.Time {
		return baseRTT + sim.Time(size*8*sim.Second/hostRate)
	}
	var delivered int64
	tr.OnFlowDone = func(f *transport.Flow) {
		delivered += f.Size
		rec.Record(f.Size, f.FCT())
	}
	gen := &wl.Generator{
		Net: nw, Tr: tr, Rng: rng, Dist: dist,
		Load: cfg.Load, MaxFlows: cfg.Flows, BaseBisectionBps: baseBisection,
	}
	gen.StartFlowFn = func(src, dst int, size int64) {
		t0 := lt.clock.begin()
		tr.StartFlow(src, dst, size)
		lt.clock.end(&lt.startFlow, t0)
	}
	gen.Start()

	out := &replicaOut{prof: prof, tr: tr}
	drain := sim.Time(cfg.DrainTimeoutNs)
	if drain <= 0 {
		drain = 2 * sim.Second
	}
	const slice = 10 * sim.Millisecond
	var lastArrival sim.Time
	for {
		if gen.Started() >= cfg.Flows && lastArrival == 0 {
			lastArrival = eng.Now()
		}
		if gen.Started() >= cfg.Flows && (tr.ActiveCount() == 0 || eng.Now() > lastArrival+drain) {
			break
		}
		if eng.Pending() == 0 && eng.Now() > 0 {
			break
		}
		t0 := lt.clock.begin()
		eng.Run(eng.Now() + slice)
		lt.clock.end(&lt.engineRun, t0)
		if d := eng.Pending(); d > out.peakDepth {
			_, cancelled := eng.PendingCensus()
			out.peakDepth = d
			out.cancelledAtPeak = float64(cancelled) / float64(d)
		}
	}

	// Unfinished flows are charged their elapsed time, in flow-id order.
	var leftovers []*transport.Flow
	for _, f := range tr.ActiveFlows() {
		if !f.Hidden {
			leftovers = append(leftovers, f)
		}
	}
	sort.Slice(leftovers, func(i, j int) bool { return leftovers[i].ID < leftovers[j].ID })
	for _, f := range leftovers {
		rec.RecordUnfinished(f.Size, eng.Now()-f.StartAt)
	}
	res := &hermes.Result{
		Scheme: cfg.Scheme, Workload: cfg.Workload, Load: cfg.Load,
		FCT: rec.Report(), SimDuration: eng.Now(), Events: eng.Fired(),
	}
	if eng.Now() > 0 {
		res.GoodputGbps = float64(delivered) * 8 / float64(eng.Now())
		if baseBisection > 0 {
			res.FabricUtilization = res.GoodputGbps * 1e9 / float64(baseBisection)
		}
	}
	parts.fill(res)
	out.res = res
	out.pkts = nw.PacketStats()
	out.arrivals = gen.Started()
	return out, nil
}
