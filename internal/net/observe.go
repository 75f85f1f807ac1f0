package net

import (
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// AttachObservability registers the fabric's observability surface on the
// report registry and the flight recorder; either may be nil. Both get
// fabric-wide aggregates and per-port series for every fabric port (leaf
// uplinks and spine downlinks); host access ports contribute to the
// aggregates only, keeping the series count proportional to the fabric.
//
// The report registry carries cumulative gauges: totals, queue depth and
// high-watermark, busy time. The flight recorder carries rates (throughput,
// goodput, utilization, per-port ECN-mark and drop deltas) and interval
// queue peaks. A probe that means the same in both sinks is declared once
// and registered on both; the stateful ones (deltas, TakeQueuePeak) stay
// flight-only, because they must be read exactly once per sample instant.
//
// Every probe is pull-style over the ports' existing counters, so the
// data-plane hot path is untouched except for the one peak-tracking branch
// armed by EnablePeakSampling.
func (n *Network) AttachObservability(reg *telemetry.Registry, rec *timeseries.Recorder) {
	if reg == nil && rec == nil {
		return
	}
	var fabricPorts, allPorts []*Port
	for _, leaf := range n.Leaves {
		fabricPorts = append(fabricPorts, leaf.up...)
		allPorts = append(allPorts, leaf.up...)
		allPorts = append(allPorts, leaf.down...)
	}
	for _, sp := range n.Spines {
		fabricPorts = append(fabricPorts, sp.down...)
		allPorts = append(allPorts, sp.down...)
	}
	for _, h := range n.Hosts {
		allPorts = append(allPorts, h.uplink)
	}
	sum := func(pick func(*Port) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, p := range allPorts {
				t += pick(p)
			}
			return t
		}
	}
	asFloat := func(read func() uint64) func() float64 {
		return func() float64 { return float64(read()) }
	}
	txBytes := sum(func(p *Port) uint64 { return p.TxBytes })

	reg.GaugeFunc("net.tx_bytes_total", asFloat(txBytes))
	reg.GaugeFunc("net.tx_packets_total", asFloat(sum(func(p *Port) uint64 { return p.TxPackets })))
	reg.GaugeFunc("net.queue_hiwater_bytes_max", func() float64 {
		var m float64
		for _, p := range allPorts {
			if v := float64(p.hiWater); v > m {
				m = v
			}
		}
		return m
	})
	var interval float64
	if rec != nil {
		interval = float64(rec.Interval)
		if interval <= 0 {
			interval = float64(timeseries.DefaultInterval)
		}
		// bytes per ns-interval -> Gbit/s
		gbps := func(read func() uint64) func() float64 {
			d := deltaProbe(read)
			return func() float64 { return d() * 8 / interval }
		}
		rec.Register("net.tx_gbps", gbps(txBytes))
		// Goodput: application payload bytes landing at destination hosts.
		// The recovery analysis dips on this series rather than tx_gbps
		// because the latter counts headers, ACKs, probes and retransmits on
		// every port, all of which INCREASE under failure and mask the dip.
		rec.Register("net.goodput_gbps", gbps(func() uint64 { return n.deliveredPayload }))
	}
	telemetry.Share(reg, rec, "net.drops_total", asFloat(sum(func(p *Port) uint64 { return p.Drops })))
	telemetry.Share(reg, rec, "net.ecn_marks_total", asFloat(sum(func(p *Port) uint64 { return p.ECNMarks })))

	for _, p := range fabricPorts {
		p := p
		key := func(name string) string { return telemetry.Key(name, "port", p.Name) }
		telemetry.Share(reg, rec, key("net.port.queue_bytes"), func() float64 { return float64(p.loBytes) })
		reg.GaugeFunc(key("net.port.queue_hiwater_bytes"), func() float64 { return float64(p.hiWater) })
		reg.GaugeFunc(key("net.port.drops"), func() float64 { return float64(p.Drops) })
		reg.GaugeFunc(key("net.port.ecn_marks"), func() float64 { return float64(p.ECNMarks) })
		reg.GaugeFunc(key("net.port.tx_bytes"), func() float64 { return float64(p.TxBytes) })
		reg.GaugeFunc(key("net.port.busy_ns"), func() float64 { return float64(p.busyTime) })
		if rec == nil {
			continue
		}
		p.EnablePeakSampling()
		rec.Register(key("net.port.queue_peak_bytes"), func() float64 { return float64(p.TakeQueuePeak()) })
		// Fraction of the interval spent transmitting; can exceed 1 when a
		// serialization slot straddles the sample edge.
		busy := deltaProbe(func() uint64 { return uint64(p.busyTime) })
		rec.Register(key("net.port.util"), func() float64 { return busy() / interval })
		rec.Register(key("net.port.ecn_mark_rate"), deltaProbe(func() uint64 { return p.ECNMarks }))
		rec.Register(key("net.port.drop_rate"), deltaProbe(func() uint64 { return p.Drops }))
	}
}

// deltaProbe turns a cumulative counter into a per-interval rate series.
func deltaProbe(read func() uint64) func() float64 {
	var last uint64
	return func() float64 {
		v := read()
		d := v - last
		last = v
		return float64(d)
	}
}
