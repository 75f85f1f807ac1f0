package main

import "github.com/hermes-repro/hermes/internal/sim"

// layerMetrics turns the untraced passes and one traced pass into the
// per-layer table. Counts are totals over the runs of one pass. Which runs
// feed which layer is a property of how the pass could observe them:
//
//   - sim.* come from every traced run: the replica's profile and the
//     facade's Perf block, both timing every event.
//   - net.*, transport.acks/start_ns, lb.* timings, workload.arrival_ns and
//     sim.cancelled_at_peak_frac need the replica, so they cover replica
//     runs only (on testbed-chaos, the cut-cable run).
//   - core.*, lb.reps_recycled_frac, ckpt.* and go.* come from the
//     untraced passes' Results, so they cover every run.
func layerMetrics(w *workload, passes []passStats, tp *tracedPass) map[string]float64 {
	m := map[string]float64{}
	timerNs := tp.lt.clock.timerNs
	kinds := sim.KindNames()

	// sim: event counts and where sampled event time went.
	var fires, sampledNs [sim.NumKinds]float64
	var events, peak float64
	for _, r := range tp.replicas {
		events += float64(r.res.Events)
		peak = max(peak, float64(r.prof.QueuePeak()))
		for k := range fires {
			fires[k] += float64(r.prof.Count(sim.Kind(k)))
			sampledNs[k] += float64(r.prof.SampledNs(sim.Kind(k)))
		}
	}
	kindIndex := map[string]int{}
	for k, n := range kinds {
		kindIndex[n] = k
	}
	for _, res := range tp.facade {
		events += float64(res.Events)
		peak = max(peak, float64(res.Perf.QueuePeak))
		for _, ks := range res.Perf.ByKind {
			fires[kindIndex[ks.Kind]] += float64(ks.Count)
			sampledNs[kindIndex[ks.Kind]] += float64(ks.SampledNs)
		}
	}
	var totalNs float64
	for _, ns := range sampledNs {
		totalNs += ns
	}
	m["sim.events"] = events
	m["sim.queue_peak"] = peak
	for k, n := range kinds {
		m["sim.fires."+n] = fires[k]
		if totalNs > 0 {
			m["sim.self_pct."+n] = 100 * sampledNs[k] / totalNs
		}
	}
	depth := 0
	for _, r := range tp.replicas {
		if r.peakDepth > depth {
			depth, m["sim.cancelled_at_peak_frac"] = r.peakDepth, r.cancelledAtPeak
		}
	}
	perEvent := make([]float64, len(passes))
	for i, p := range passes {
		var runNs int64
		for _, ns := range p.runNs {
			runNs += ns
		}
		perEvent[i] = nsPer(runNs, p.events)
	}
	m["sim.ns_per_event"] = median(perEvent)

	// net and transport, from the replica runs. A run's ns per packet uses
	// its own untraced wall time (median over passes).
	var replicaWallNs int64
	var arrivalNs float64
	for i, r := range w.runs {
		if !r.replica {
			continue
		}
		walls := make([]float64, len(passes))
		for j, p := range passes {
			walls[j] = float64(p.runNs[i])
		}
		replicaWallNs += int64(median(walls))
	}
	var delivered uint64
	for _, r := range tp.replicas {
		delivered += r.pkts.Delivered
		m["net.pkts_delivered"] += float64(r.pkts.Delivered)
		m["net.drops_port"] += float64(r.pkts.PortDrops)
		m["net.drops_switch"] += float64(r.pkts.SwitchDrops)
		m["transport.flows"] += float64(r.arrivals)
		m["transport.retransmits"] += float64(r.tr.Retransmits)
		m["transport.timeouts"] += float64(r.tr.Timeouts)
		arrivalNs += float64(r.prof.SampledNs(sim.KindArrival))
	}
	m["net.ns_per_pkt"] = nsPer(replicaWallNs, delivered)
	for _, res := range tp.facade {
		if res.Telemetry == nil {
			continue
		}
		v := res.Telemetry.Registry.Values()
		m["transport.flows"] += v["transport.flows_started"]
		m["transport.retransmits"] += v["transport.retransmits_total"]
		m["transport.timeouts"] += v["transport.timeouts_total"]
	}
	lt := tp.lt
	m["transport.acks"] = float64(lt.onAck.calls)
	m["transport.start_ns"] = lt.startFlow.perCallNs(timerNs)

	// lb / core.
	m["lb.select_calls"] = float64(lt.selectPath.calls)
	m["lb.select_ns"] = lt.selectPath.perCallNs(timerNs)
	m["lb.ack_ns"] = lt.onAck.perCallNs(timerNs)
	m["lb.sent_ns"] = lt.onSent.perCallNs(timerNs)
	if lt.engineRun.rawNs > 0 {
		m["lb.self_pct"] = 100 * float64(lt.balancerSelfNs()) / float64(lt.engineRun.rawNs)
	}
	first := passes[0]
	var recycled, sprays float64
	for _, r := range first.runs {
		recycled += float64(r.recycledSprays)
		sprays += float64(r.recycledSprays + r.freshSprays)
		m["core.probes_sent"] += float64(r.probesSent)
		m["core.reroutes"] += float64(r.reroutes)
	}
	if sprays > 0 {
		m["lb.reps_recycled_frac"] = recycled / sprays
	}

	// workload: the generator's own share of each arrival event is what the
	// event took minus the timed StartFlow call inside it.
	m["workload.arrivals"] = fires[sim.KindArrival]
	if lt.startFlow.calls > 0 {
		self := arrivalNs - float64(lt.startFlow.rawNs) - float64(lt.startFlow.calls)*float64(timerNs)
		m["workload.arrival_ns"] = max(self, 0) / float64(lt.startFlow.calls)
	}

	// obs: the samplers' events.
	m["obs.sample_fires"] = fires[sim.KindSample]
	m["obs.self_pct"] = m["sim.self_pct.sample"]

	// ckpt: the soak run's checkpoints and the restore from the latest.
	if w.restore {
		parent := first.runs[len(first.runs)-1]
		cps := parent.checkpoints
		m["ckpt.files"] = float64(len(cps))
		for _, c := range cps {
			m["ckpt.bytes"] += float64(c.Bytes)
		}
		if len(cps) > 0 && parent.simNs > 0 {
			m["ckpt.replayed_sim_frac"] = float64(cps[len(cps)-1].SimTimeNs) / float64(parent.simNs)
		}
		m["ckpt.restore_events"] = float64(first.restoreEvents)
		restores := make([]float64, len(passes))
		for i, p := range passes {
			restores[i] = float64(p.restoreNs) / 1e9
		}
		m["ckpt.restore_s"] = median(restores)
	}

	// go: allocation per untraced pass.
	allocMiB := make([]float64, len(passes))
	mallocs := make([]float64, len(passes))
	gcs := make([]float64, len(passes))
	walls := make([]float64, len(passes))
	for i, p := range passes {
		allocMiB[i] = float64(p.alloc.bytes) / (1 << 20)
		mallocs[i] = float64(p.alloc.objects)
		gcs[i] = float64(p.alloc.gcCycles)
		walls[i] = float64(p.wallNs)
	}
	m["go.alloc_mib"] = median(allocMiB)
	m["go.mallocs"] = median(mallocs)
	m["go.gc_cycles"] = median(gcs)

	// trace: the timer's cost and what tracing did to the pass.
	m["trace.timer_ns"] = float64(timerNs)
	if wall := median(walls); wall > 0 {
		m["trace.overhead_pct"] = 100 * (float64(tp.wallNs) - wall) / wall
	}
	return m
}
