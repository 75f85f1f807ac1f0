package metrics

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/timeseries"
	"github.com/hermes-repro/hermes/internal/transport"
)

// failureStack builds a small loaded fabric with ECMP so the samplers watch
// real traffic while a failure is injected mid-run.
func failureStack(t *testing.T) (*sim.Engine, *net.Network, *transport.Transport) {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(7), net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 1e9, FabricRateBps: 1e9,
		HostDelay: 2000, FabricDelay: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &lb.ECMP{Net: nw}
	tr := transport.New(nw, transport.DefaultOptions(), func(*net.Host) transport.Balancer { return e })
	return eng, nw, tr
}

// checkWellFormed verifies the invariants every sample stream must keep
// regardless of what the fabric does: strictly increasing timestamps spaced
// one interval apart, and in-range values.
func checkQueueSamples(t *testing.T, qs *QueueSampler, interval sim.Time) {
	t.Helper()
	if len(qs.Samples) == 0 {
		t.Fatal("queue sampler recorded nothing")
	}
	for i, s := range qs.Samples {
		if s.Bytes < 0 {
			t.Fatalf("sample %d: negative queue %d", i, s.Bytes)
		}
		if i > 0 && s.At != qs.Samples[i-1].At+interval {
			t.Fatalf("sample %d: timestamp %d not one interval after %d",
				i, s.At, qs.Samples[i-1].At)
		}
	}
}

// txRate samples the port's transmit rate in Gbps once per interval on a
// flight recorder, the way the fabric-wide net.tx_gbps series does.
func txRate(eng *sim.Engine, port *net.Port, interval sim.Time) *timeseries.Recorder {
	rec := timeseries.NewRecorder(eng, interval, 0, 0)
	var last uint64
	rec.Register("gbps", func() float64 {
		d := port.TxBytes - last
		last = port.TxBytes
		return float64(d) * 8 / float64(interval)
	})
	rec.Start()
	return rec
}

func checkThroughputSamples(t *testing.T, rec *timeseries.Recorder, maxGbps float64, interval sim.Time) []float64 {
	t.Helper()
	times, gbps := rec.Times(), rec.Series("gbps")
	if len(gbps) == 0 {
		t.Fatal("throughput probe recorded nothing")
	}
	// A packet whose transmission starts right at a window boundary is
	// charged to that window whole, so allow one wire packet of slack.
	slack := float64((net.MSS+net.HeaderBytes)*8) / float64(interval)
	var sum float64
	for i, g := range gbps {
		// TxBytes is cumulative, so a negative rate would mean the counter
		// ran backwards.
		if g < 0 {
			t.Fatalf("sample %d: negative goodput %f", i, g)
		}
		if g > maxGbps+slack {
			t.Fatalf("sample %d: %f Gbps exceeds line rate %f", i, g, maxGbps)
		}
		if i > 0 && times[i] != times[i-1]+int64(interval) {
			t.Fatalf("sample %d: timestamp %d not one interval after %d", i, times[i], times[i-1])
		}
		sum += g
	}
	if sum <= 0 {
		t.Fatal("no traffic ever crossed the sampled port")
	}
	return gbps
}

func TestSamplersUnderLinkCut(t *testing.T) {
	eng, nw, tr := failureStack(t)
	port := nw.UplinkPort(0, 0) // leaf0 -> spine0, the link we will cut
	const interval = 50 * sim.Microsecond
	qs := &QueueSampler{Port: port, Interval: interval}
	qs.Start(eng)
	ts := txRate(eng, port, interval)

	// Keep both uplinks busy with long cross-rack flows in both directions.
	for i := 0; i < 4; i++ {
		tr.StartFlow(i%2, 2+i%2, 4_000_000)
	}
	eng.Schedule(5*sim.Millisecond, func() { nw.SetFabricLink(0, 0, 0) })
	eng.Run(15 * sim.Millisecond)
	qs.Stop()
	ts.Stop()

	checkQueueSamples(t, qs, interval)
	gbps := checkThroughputSamples(t, ts, 1.0, interval)
	// The dead link stops transmitting: the tail of both series must go
	// flat at zero (drained queue, zero rate).
	tailQ := qs.Samples[len(qs.Samples)-1]
	if tailQ.Bytes != 0 {
		t.Fatalf("cut port still queues %d bytes at run end", tailQ.Bytes)
	}
	if tail := gbps[len(gbps)-1]; tail != 0 {
		t.Fatalf("cut port still transmits %f Gbps at run end", tail)
	}
}

func TestSamplersUnderDegradation(t *testing.T) {
	eng, nw, tr := failureStack(t)
	port := nw.UplinkPort(0, 0)
	const interval = 50 * sim.Microsecond
	qs := &QueueSampler{Port: port, Interval: interval}
	qs.Start(eng)
	ts := txRate(eng, port, interval)

	for i := 0; i < 4; i++ {
		tr.StartFlow(i%2, 2+i%2, 4_000_000)
	}
	// Degrade the sampled link to a tenth of its rate mid-run.
	eng.Schedule(5*sim.Millisecond, func() { nw.SetFabricLink(0, 0, 100e6) })
	eng.Run(15 * sim.Millisecond)
	qs.Stop()
	ts.Stop()

	checkQueueSamples(t, qs, interval)
	gbps := checkThroughputSamples(t, ts, 1.0, interval) // bound: pre-degrade line rate
	// After degradation the port can never exceed the new rate; check the
	// tail half of the series against it.
	slack := float64((net.MSS+net.HeaderBytes)*8) / float64(interval)
	for _, g := range gbps[len(gbps)/2:] {
		if g > 0.1+slack {
			t.Fatalf("degraded port transmitted %f Gbps after re-rate", g)
		}
	}
}
