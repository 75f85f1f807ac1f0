package transport

import (
	"sort"

	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// fctWindow bounds the recent-FCT ring behind the p99 probe: large enough
// that a sample interval's completions never dominate it, small enough that
// the probe's sort stays cheap.
const fctWindow = 512

// AttachObservability registers the transport's observability surface on
// the report registry and the flight recorder; either may be nil. The flow
// lifecycle and loss counters are pull gauges over fields the transport
// keeps anyway, declared once and registered on both sinks. The report adds
// the window and ECN-fraction histograms, the only instruments the hot path
// writes (one nil check each when the registry is off); the flight recorder
// adds in-flight bytes and a windowed p99 flow-completion time, which costs
// flow completion one append into a fixed ring.
func (tr *Transport) AttachObservability(reg *telemetry.Registry, rec *timeseries.Recorder) {
	telemetry.Share(reg, rec, "transport.flows_active", func() float64 { return float64(len(tr.active)) })
	telemetry.Share(reg, rec, "transport.flows_finished", func() float64 { return float64(tr.finished) })
	rec.Register("transport.inflight_bytes", func() float64 {
		var t int64
		for _, f := range tr.active {
			t += f.sndNxt - f.cumAck
		}
		return float64(t)
	})
	telemetry.Share(reg, rec, "transport.retransmits_total", func() float64 { return float64(tr.Retransmits) })
	telemetry.Share(reg, rec, "transport.timeouts_total", func() float64 { return float64(tr.Timeouts) })
	reg.GaugeFunc("transport.flows_started", func() float64 { return float64(tr.nextFlowID) })
	// Window samples in bytes, taken at every RTO and at flow completion.
	tr.telemCwnd = reg.Histogram("transport.cwnd_bytes",
		[]float64{1_500, 15_000, 75_000, 150_000, 750_000, 1_500_000})
	// Per-flow DCTCP alpha (smoothed ECN-marked fraction) at completion.
	tr.telemAlpha = reg.Histogram("transport.flow_ecn_fraction",
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1})
	if rec == nil {
		return
	}
	tr.fctRing = make([]float64, fctWindow)
	scratch := make([]float64, 0, fctWindow)
	rec.Register("transport.fct_p99_ms", func() float64 {
		n := tr.fctRingLen
		if n == 0 {
			return 0
		}
		scratch = append(scratch[:0], tr.fctRing[:n]...)
		sort.Float64s(scratch)
		i := (99*n + 99) / 100 // ceil(0.99 n)
		if i > n {
			i = n
		}
		return scratch[i-1]
	})
}

// recordFCT appends one completed flow's FCT (milliseconds) to the ring.
func (tr *Transport) recordFCT(ms float64) {
	tr.fctRing[tr.fctRingPos] = ms
	tr.fctRingPos++
	if tr.fctRingPos == len(tr.fctRing) {
		tr.fctRingPos = 0
	}
	if tr.fctRingLen < len(tr.fctRing) {
		tr.fctRingLen++
	}
}
