// Package pinned holds the repo's pinned microbenchmark bodies: the hot-path
// measurements whose trajectory the perf ledger (BENCH_perf.json) tracks
// across PRs. The bodies live here — in a normal (non-test) package — so the
// same code runs under `go test -bench` via thin wrappers in the owning
// packages AND programmatically from `hermes-bench -perf` through
// testing.Benchmark. A pinned benchmark's name must stay stable forever:
// it is the join key of the ledger trajectory.
package pinned

import (
	"math/rand"
	"testing"

	hnet "github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
)

// Benchmark is one pinned microbenchmark.
type Benchmark struct {
	Name string // ledger key, e.g. "net.BenchmarkPacketForward"
	Fn   func(*testing.B)
}

// Benchmarks returns the pinned set in canonical order.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{Name: "net.BenchmarkPacketForward", Fn: PacketForward},
		{Name: "net.BenchmarkPacketForwardPipelined", Fn: PacketForwardPipelined},
		{Name: "sim.BenchmarkEngineScheduleRun", Fn: EngineScheduleRun},
		{Name: "transport.BenchmarkAckPath", Fn: AckPath},
	}
}

// EngineScheduleRun measures raw engine scheduling + firing throughput with
// random delays over a bounded queue.
func EngineScheduleRun(b *testing.B) {
	e := sim.NewEngine()
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(sim.Time(r.Intn(1000)), func() {})
		if e.Pending() > 10000 {
			e.RunAll()
		}
	}
	e.RunAll()
}

// benchFabric builds the smallest cross-leaf fabric that exercises the full
// forwarding hot path: host uplink -> leaf -> spine -> leaf -> host, four
// store-and-forward hops with two engine events each.
func benchFabric(b *testing.B) (*sim.Engine, *hnet.Network) {
	b.Helper()
	eng := sim.NewEngine()
	nw, err := hnet.NewLeafSpine(eng, sim.NewRNG(1), hnet.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10_000_000_000, FabricRateBps: 10_000_000_000,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng, nw
}

// PacketForward measures the allocation cost of forwarding one full-size
// data packet across the fabric (the simulator's dominant hot path). The
// alloc/op figure is the headline number of the ledger.
func PacketForward(b *testing.B) {
	eng, nw := benchFabric(b)
	delivered := 0
	nw.Hosts[2].Handle(hnet.Data, func(p *hnet.Packet) { delivered++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := &hnet.Packet{Kind: hnet.Data, Flow: uint64(i), Src: 0, Dst: 2, Wire: hnet.MaxPacketBytes, Path: i % 2}
		nw.Hosts[0].Send(pkt)
		eng.RunAll()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d packets", delivered, b.N)
	}
}

// PacketForwardPipelined keeps a window of packets in flight so the ports
// stay busy, amortizing engine bookkeeping the way a loaded run does.
func PacketForwardPipelined(b *testing.B) {
	eng, nw := benchFabric(b)
	delivered := 0
	nw.Hosts[2].Handle(hnet.Data, func(p *hnet.Packet) { delivered++ })
	b.ReportAllocs()
	b.ResetTimer()
	const window = 32
	for i := 0; i < b.N; i++ {
		pkt := &hnet.Packet{Kind: hnet.Data, Flow: uint64(i), Src: 0, Dst: 2, Wire: hnet.MaxPacketBytes, Path: i % 2}
		nw.Hosts[0].Send(pkt)
		if i%window == window-1 {
			eng.RunAll()
		}
	}
	eng.RunAll()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d packets", delivered, b.N)
	}
}

// pathZero pins every segment to path 0 and ignores all feedback, so the
// ACK-path benchmark measures transport work, not a balancer.
type pathZero struct{ transport.BaseBalancer }

func (pathZero) Name() string                   { return "path0" }
func (pathZero) SelectPath(*transport.Flow) int { return 0 }

// AckPath measures the sender's steady-state ACK clock on a warm flow: one
// cumulative ACK arrives, advances the window by a segment, re-arms the
// retransmission timer and hands the released segments to the NIC. The
// ACKs are synthetic and CE-marked (DCTCP then holds the window small, so
// every ACK releases about one segment), and reach the sender from a
// same-leaf host, two engine hops each. The sender's own access link is cut:
// released segments drop at enqueue instead of loading the fabric. The
// engine advances 3 µs per ACK, so a timer re-armed RTOmin ahead on every
// ACK would otherwise leave thousands of dead events in the heap.
func AckPath(b *testing.B) {
	eng, nw := benchFabric(b)
	tr := transport.New(nw, transport.DefaultOptions(),
		func(*hnet.Host) transport.Balancer { return pathZero{} })
	nw.Hosts[0].Uplink().SetRateBps(0)
	f := tr.StartFlow(0, 2, 1<<50)
	const step = 3 * sim.Microsecond
	var acked int64
	ack := func() {
		if acked += hnet.MSS; acked > f.SentBytes() {
			acked = f.SentBytes()
		}
		pkt := nw.AllocPacket()
		*pkt = hnet.Packet{
			Kind: hnet.Ack, Flow: f.ID, Src: 2, Dst: 0, Wire: hnet.AckBytes,
			AckSeq: acked, EchoSent: eng.Now() - 10*sim.Microsecond, EchoCE: true,
			SentAt: eng.Now(),
		}
		nw.Hosts[1].Send(pkt)
		eng.Run(eng.Now() + step)
	}
	for i := 0; i < 10_000; i++ { // warm: window, estimators, heap, pools
		ack()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ack()
	}
	b.StopTimer()
	if f.Done || f.Timeouts() != 0 {
		b.Fatalf("flow done=%v timeouts=%d: the ACK clock stalled", f.Done, f.Timeouts())
	}
}
