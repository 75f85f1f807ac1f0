package core

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
)

func testNet(t *testing.T, leaves, spines, hpl int) (*sim.Engine, *net.Network) {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: leaves, Spines: spines, HostsPerLeaf: hpl,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, nw
}

func testMonitor(t *testing.T) (*sim.Engine, *net.Network, *Monitor) {
	eng, nw := testNet(t, 2, 4, 2)
	p := DefaultParams(nw)
	m := NewMonitor(nw, 0, p)
	return eng, nw, m
}

// feed pushes n delivery samples with the given CE flag and RTT.
func feed(m *Monitor, dst, path, n int, ece bool, rtt sim.Time) {
	for i := 0; i < n; i++ {
		m.OnDelivery(dst, path, ece, rtt)
	}
}

// --- Algorithm 1: path characterization (Table 5) ------------------------

func TestClassifyGoodPath(t *testing.T) {
	_, _, m := testMonitor(t)
	feed(m, 1, 0, 50, false, m.P.TRTTLow-5*sim.Microsecond)
	if got := m.Type(1, 0); got != Good {
		t.Fatalf("low ECN + low RTT = %v, want good", got)
	}
}

func TestClassifyCongestedPath(t *testing.T) {
	_, _, m := testMonitor(t)
	feed(m, 1, 0, 100, true, m.P.TRTTHigh+50*sim.Microsecond)
	if got := m.Type(1, 0); got != Congested {
		t.Fatalf("high ECN + high RTT = %v, want congested", got)
	}
}

func TestClassifyGrayHighECNLowRTT(t *testing.T) {
	// High ECN fraction but low RTT: possibly too few samples or one
	// overloaded hop — gray (Table 5 row 2).
	_, _, m := testMonitor(t)
	feed(m, 1, 0, 100, true, m.P.TRTTLow-5*sim.Microsecond)
	if got := m.Type(1, 0); got != Gray {
		t.Fatalf("high ECN + low RTT = %v, want gray", got)
	}
}

func TestClassifyGrayLowECNHighRTT(t *testing.T) {
	// Low ECN but high RTT: possibly host-stack latency — gray (row 3).
	_, _, m := testMonitor(t)
	feed(m, 1, 0, 100, false, m.P.TRTTHigh+50*sim.Microsecond)
	if got := m.Type(1, 0); got != Gray {
		t.Fatalf("low ECN + high RTT = %v, want gray", got)
	}
}

func TestClassifyGrayModerate(t *testing.T) {
	// Moderate RTT between the thresholds — gray (row 4).
	_, _, m := testMonitor(t)
	mid := (m.P.TRTTLow + m.P.TRTTHigh) / 2
	feed(m, 1, 0, 100, false, mid)
	if got := m.Type(1, 0); got != Gray {
		t.Fatalf("moderate = %v, want gray", got)
	}
}

func TestClassifyUnknownIsGray(t *testing.T) {
	_, _, m := testMonitor(t)
	if got := m.Type(1, 3); got != Gray {
		t.Fatalf("unmeasured path = %v, want gray", got)
	}
}

func TestRTTOnlyModeIgnoresECN(t *testing.T) {
	eng, nw := testNet(t, 2, 4, 2)
	p := DefaultParams(nw)
	p.UseECN = false
	m := NewMonitor(nw, 0, p)
	_ = eng
	// Heavy marking but low RTT: in RTT-only mode this is good.
	feed(m, 1, 0, 100, true, p.TRTTLow-sim.Microsecond)
	if got := m.Type(1, 0); got != Good {
		t.Fatalf("RTT-only mode = %v, want good", got)
	}
}

// --- §3.1.2: failure sensing ---------------------------------------------

func TestRandomDropDetection(t *testing.T) {
	eng, _, m := testMonitor(t)
	// An uncongested path (low ECN, low RTT) with >1% retransmissions over
	// a window of >=32 packets must be flagged failed.
	for i := 0; i < 100; i++ {
		m.OnSent(1, 0, 1460)
		m.OnDelivery(1, 0, false, m.P.TRTTLow-sim.Microsecond)
	}
	m.OnRetransmit(1, 0)
	m.OnRetransmit(1, 0)
	eng.Run(m.P.Tau + sim.Millisecond) // roll the window
	if got := m.Type(1, 0); got != Failed {
		t.Fatalf("lossy uncongested path = %v, want failed", got)
	}
}

func TestCongestedLossesNotFlaggedAsFailure(t *testing.T) {
	eng, _, m := testMonitor(t)
	// Same retransmission fraction but with heavy ECN marking: congestion,
	// not a malfunction.
	for i := 0; i < 100; i++ {
		m.OnSent(1, 0, 1460)
		m.OnDelivery(1, 0, true, m.P.TRTTHigh+50*sim.Microsecond)
	}
	m.OnRetransmit(1, 0)
	m.OnRetransmit(1, 0)
	eng.Run(m.P.Tau + sim.Millisecond)
	if got := m.Type(1, 0); got == Failed {
		t.Fatal("congested path misdiagnosed as failed")
	}
}

func TestLowLossNotFlagged(t *testing.T) {
	eng, _, m := testMonitor(t)
	for i := 0; i < 200; i++ {
		m.OnSent(1, 0, 1460)
		m.OnDelivery(1, 0, false, m.P.TRTTLow-sim.Microsecond)
	}
	m.OnRetransmit(1, 0) // 0.5% < 1% threshold
	eng.Run(m.P.Tau + sim.Millisecond)
	if got := m.Type(1, 0); got == Failed {
		t.Fatal("sub-threshold loss flagged as failure")
	}
}

func TestSmallSampleNotJudged(t *testing.T) {
	eng, _, m := testMonitor(t)
	// Only a handful of packets: one retransmission must not fail the path.
	for i := 0; i < 5; i++ {
		m.OnSent(1, 0, 1460)
	}
	m.OnRetransmit(1, 0)
	eng.Run(m.P.Tau + sim.Millisecond)
	if got := m.Type(1, 0); got == Failed {
		t.Fatal("tiny sample produced a failure verdict")
	}
}

func TestMonitorBlackholeAfterConsecutiveTimeouts(t *testing.T) {
	_, _, m := testMonitor(t)
	for i := 0; i < m.P.TimeoutsForBlackhole+1; i++ {
		m.OnTimeout(1, 2)
	}
	if got := m.Type(1, 2); got != Failed {
		t.Fatalf("path after %d timeouts = %v, want failed", m.P.TimeoutsForBlackhole+1, got)
	}
}

func TestDeliveryResetsTimeoutCount(t *testing.T) {
	_, _, m := testMonitor(t)
	for i := 0; i < 10; i++ {
		m.OnTimeout(1, 2)
		m.OnDelivery(1, 2, false, 50*sim.Microsecond) // intervening ACK
	}
	if got := m.Type(1, 2); got == Failed {
		t.Fatal("timeouts with intervening deliveries declared a blackhole")
	}
}

func TestProbeLossCountsTowardFailure(t *testing.T) {
	eng, _, m := testMonitor(t)
	for i := 0; i < 40; i++ {
		m.OnProbeResult(1, 0, false, false, m.P.TRTTLow-sim.Microsecond)
	}
	for i := 0; i < 2; i++ {
		m.OnProbeResult(1, 0, true, false, 0)
	}
	eng.Run(m.P.Tau + sim.Millisecond)
	if got := m.Type(1, 0); got != Failed {
		t.Fatalf("probe losses on clean path = %v, want failed", got)
	}
}

// --- Hermes (Algorithm 2) -------------------------------------------------

func testHermes(t *testing.T) (*sim.Engine, *net.Network, *Monitor, *Hermes) {
	eng, nw := testNet(t, 2, 4, 2)
	p := DefaultParams(nw)
	p.ProbeInterval = 0 // probing tested separately
	m := NewMonitor(nw, 0, p)
	h := New(m, sim.NewRNG(2), 0)
	return eng, nw, m, h
}

func mkFlow(id uint64, nw *net.Network) *transport.Flow {
	return &transport.Flow{
		ID: id, Src: 0, Dst: 2,
		SrcLeaf: 0, DstLeaf: 1,
		Size: 10_000_000, CurPath: net.PathAny,
	}
}

func TestInitialPlacementPrefersGood(t *testing.T) {
	_, nw, m, h := testHermes(t)
	// Path 1 good, others congested.
	feed(m, 1, 1, 50, false, m.P.TRTTLow-sim.Microsecond)
	for _, p := range []int{0, 2, 3} {
		feed(m, 1, p, 50, true, m.P.TRTTHigh+50*sim.Microsecond)
	}
	f := mkFlow(1, nw)
	if got := h.SelectPath(f); got != 1 {
		t.Fatalf("initial placement = %d, want the good path 1", got)
	}
}

func TestInitialPlacementLeastLoadedAmongGood(t *testing.T) {
	_, nw, m, h := testHermes(t)
	now := m.Net.Eng.Now()
	for p := 0; p < 4; p++ {
		feed(m, 1, p, 50, false, m.P.TRTTLow-sim.Microsecond)
	}
	// Load paths 0,1,2 locally; path 3 idle.
	for _, p := range []int{0, 1, 2} {
		for i := 0; i < 100; i++ {
			m.OnSent(1, p, 1460)
		}
	}
	_ = now
	f := mkFlow(1, nw)
	if got := h.SelectPath(f); got != 3 {
		t.Fatalf("placement = %d, want least-loaded good path 3", got)
	}
}

func TestIntraLeafUsesPathAny(t *testing.T) {
	_, _, _, h := testHermes(t)
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, SrcLeaf: 0, DstLeaf: 0}
	if got := h.SelectPath(f); got != net.PathAny {
		t.Fatalf("intra-leaf path = %d, want PathAny", got)
	}
}

func TestTimeoutTriggersRerouteAndClearsFlag(t *testing.T) {
	// Full stack: a flow whose packets all die suffers an RTO; the next
	// SelectPath must treat it as fresh, clear the flag and count the
	// reroute.
	eng, nw := testNet(t, 2, 4, 2)
	p := DefaultParams(nw)
	p.ProbeInterval = 0
	m := NewMonitor(nw, 0, p)
	h := New(m, sim.NewRNG(2), 0)
	tr := transport.New(nw, transport.DefaultOptions(), func(host *net.Host) transport.Balancer {
		if host.ID == 0 {
			return h
		}
		return &passBal{}
	})
	// Every spine drops data during the first 30 ms, forcing RTOs.
	for s := range nw.Spines {
		nw.Spines[s].AddDropFn(func(pk *net.Packet) bool {
			return eng.Now() < 30*sim.Millisecond && pk.Kind == net.Data
		})
	}
	f := tr.StartFlow(0, 2, 100_000)
	eng.Run(200 * sim.Millisecond)
	if !f.Done {
		t.Fatal("flow did not finish after drops lifted")
	}
	if h.TimeoutReroutes == 0 {
		t.Fatal("RTO did not trigger a timeout reroute")
	}
	if f.TimedOut {
		t.Fatal("TimedOut flag left set")
	}
}

func TestCongestedPathCautiousReroute(t *testing.T) {
	// Full stack test: a real flow on a congested path with the gates open
	// must move to the notably better path.
	eng, nw := testNet(t, 2, 2, 2)
	p := DefaultParams(nw)
	p.ProbeInterval = 0
	p.SBytes = 1000 // open the size gate quickly
	p.RBps = 1e18   // rate gate studied separately (TestRerouteGatesRespectSAndR)
	m := NewMonitor(nw, 0, p)
	h := New(m, sim.NewRNG(2), 0)
	tr := transport.New(nw, transport.DefaultOptions(), func(host *net.Host) transport.Balancer {
		if host.ID == 0 {
			return h
		}
		return &passBal{}
	})
	// Make path 0 look congested and path 1 notably better before a flow
	// starts, then hold the state by continuous feeding.
	congest := func() {
		feed(m, 1, 0, 20, true, p.TRTTHigh+100*sim.Microsecond)
		feed(m, 1, 1, 20, false, p.TRTTLow-sim.Microsecond)
	}
	congest()
	f := tr.StartFlow(0, 2, 5_000_000)
	if f.CurPath != 1 {
		t.Fatalf("flow placed on %d, want the good path 1", f.CurPath)
	}
	// Now flip the path states: path 1 congested, path 0 notably better.
	swap := func() {
		feed(m, 1, 1, 40, true, p.TRTTHigh+100*sim.Microsecond)
		feed(m, 1, 0, 40, false, p.TRTTLow-sim.Microsecond)
	}
	for i := 0; i < 20; i++ {
		eng.Run(eng.Now() + 100*sim.Microsecond)
		swap()
		if f.Done {
			break
		}
	}
	eng.Run(eng.Now() + 100*sim.Millisecond)
	if h.Reroutes == 0 {
		t.Fatal("no congestion-triggered reroute despite notably better path")
	}
}

type passBal struct{ transport.BaseBalancer }

func (passBal) Name() string                   { return "pass" }
func (passBal) SelectPath(*transport.Flow) int { return net.PathAny }

func TestRerouteGatesRespectSAndR(t *testing.T) {
	eng, nw := testNet(t, 2, 2, 2)
	p := DefaultParams(nw)
	p.ProbeInterval = 0
	p.SBytes = 1 << 40 // size gate never opens
	m := NewMonitor(nw, 0, p)
	h := New(m, sim.NewRNG(2), 0)
	tr := transport.New(nw, transport.DefaultOptions(), func(host *net.Host) transport.Balancer {
		if host.ID == 0 {
			return h
		}
		return &passBal{}
	})
	feed(m, 1, 0, 40, true, p.TRTTHigh+100*sim.Microsecond)
	feed(m, 1, 1, 40, false, p.TRTTLow-sim.Microsecond)
	f := tr.StartFlow(0, 2, 5_000_000)
	start := f.CurPath
	for i := 0; i < 20; i++ {
		eng.Run(eng.Now() + 100*sim.Microsecond)
		// Keep the current path congested-looking, the other good.
		feed(m, 1, start, 40, true, p.TRTTHigh+100*sim.Microsecond)
		feed(m, 1, 1-start, 40, false, p.TRTTLow-sim.Microsecond)
	}
	if h.Reroutes != 0 {
		t.Fatal("rerouted despite closed S gate")
	}
}

func TestPairBlackholeDetection(t *testing.T) {
	_, nw, m, h := testHermes(t)
	f := mkFlow(1, nw)
	f.CurPath = 0
	for i := 0; i < m.P.TimeoutsForBlackhole; i++ {
		h.OnTimeout(f, 0)
	}
	if !h.pathFailed(f, 0) {
		t.Fatal("pair not marked blackholed after 3 timeouts")
	}
	// Another destination under the same leaf is unaffected.
	f2 := &transport.Flow{ID: 2, Src: 0, Dst: 3, SrcLeaf: 0, DstLeaf: 1, CurPath: net.PathAny}
	if h.pathFailed(f2, 0) && m.Type(1, 0) != Failed {
		t.Fatal("blackhole verdict leaked to an unaffected pair")
	}
}

func TestAckResetsPairTimeoutCount(t *testing.T) {
	_, nw, _, h := testHermes(t)
	f := mkFlow(1, nw)
	for i := 0; i < 10; i++ {
		h.OnTimeout(f, 0)
		if i < 2 {
			h.OnAck(f, transport.AckEvent{Path: 0, RTT: 50 * sim.Microsecond})
		} else {
			break
		}
	}
	// Interleaved ACKs kept resetting: after 2 rounds + 1 timeout the pair
	// is not yet blackholed.
	if h.pathFailed(f, 0) {
		t.Fatal("pair blackholed despite intervening ACKs")
	}
}

func TestVigorousModeAlwaysChasesBest(t *testing.T) {
	eng, nw := testNet(t, 2, 2, 2)
	p := DefaultParams(nw)
	p.ProbeInterval = 0
	p.Vigorous = true
	m := NewMonitor(nw, 0, p)
	h := New(m, sim.NewRNG(2), 0)
	tr := transport.New(nw, transport.DefaultOptions(), func(host *net.Host) transport.Balancer {
		if host.ID == 0 {
			return h
		}
		return &passBal{}
	})
	feed(m, 1, 0, 40, false, 100*sim.Microsecond)
	feed(m, 1, 1, 40, false, 50*sim.Microsecond)
	f := tr.StartFlow(0, 2, 1_000_000)
	// Flip RTT ordering repeatedly: vigorous mode must follow every flip.
	for i := 0; i < 10; i++ {
		feed(m, 1, i%2, 40, false, 30*sim.Microsecond)
		feed(m, 1, 1-i%2, 40, false, 200*sim.Microsecond)
		eng.Run(eng.Now() + 50*sim.Microsecond)
	}
	eng.Run(eng.Now() + 100*sim.Millisecond)
	if !f.Done {
		t.Fatal("flow did not finish")
	}
	if h.Reroutes < 3 {
		t.Fatalf("vigorous mode rerouted only %d times", h.Reroutes)
	}
}

func TestDisableRerouteBlocksCongestionMoves(t *testing.T) {
	eng, nw := testNet(t, 2, 2, 2)
	p := DefaultParams(nw)
	p.ProbeInterval = 0
	p.SBytes = 1
	p.DisableReroute = true
	m := NewMonitor(nw, 0, p)
	h := New(m, sim.NewRNG(2), 0)
	tr := transport.New(nw, transport.DefaultOptions(), func(host *net.Host) transport.Balancer {
		if host.ID == 0 {
			return h
		}
		return &passBal{}
	})
	f := tr.StartFlow(0, 2, 3_000_000)
	cur := f.CurPath
	for i := 0; i < 20; i++ {
		feed(m, 1, cur, 40, true, p.TRTTHigh+100*sim.Microsecond)
		feed(m, 1, 1-cur, 40, false, p.TRTTLow-sim.Microsecond)
		eng.Run(eng.Now() + 100*sim.Microsecond)
	}
	if h.Reroutes != 0 {
		t.Fatal("DisableReroute did not block congestion rerouting")
	}
}

// --- Prober ----------------------------------------------------------------

func proberSetup(t *testing.T, interval sim.Time) (*sim.Engine, *net.Network, []*Monitor, []*Prober) {
	eng, nw := testNet(t, 3, 4, 2)
	p := DefaultParams(nw)
	p.ProbeInterval = interval
	InstallProbeResponders(nw)
	agents := []*net.Host{nw.Hosts[0], nw.Hosts[2], nw.Hosts[4]}
	var mons []*Monitor
	var probers []*Prober
	for l := 0; l < 3; l++ {
		m := NewMonitor(nw, l, p)
		mons = append(mons, m)
		probers = append(probers, NewProber(m, sim.NewRNG(int64(l)), agents))
	}
	return eng, nw, mons, probers
}

func TestProberPopulatesMonitor(t *testing.T) {
	eng, _, mons, probers := proberSetup(t, 500*sim.Microsecond)
	eng.Run(20 * sim.Millisecond)
	if probers[0].ProbesSent == 0 {
		t.Fatal("no probes sent")
	}
	if probers[0].ProbesLost != 0 {
		t.Fatalf("probes lost on a healthy fabric: %d", probers[0].ProbesLost)
	}
	// At least some paths to each destination leaf must have RTT samples.
	for d := 1; d < 3; d++ {
		sampled := 0
		for s := 0; s < 4; s++ {
			if mons[0].State(d, s).RTT() > 0 {
				sampled++
			}
		}
		if sampled < 3 {
			t.Fatalf("only %d paths to leaf %d sampled; power-of-two-choices should cover >= 3", sampled, d)
		}
	}
}

func TestProberCoversAtLeastThreePathsPerInterval(t *testing.T) {
	eng, _, _, probers := proberSetup(t, 500*sim.Microsecond)
	eng.Run(5*sim.Millisecond + 100*sim.Microsecond)
	// Each interval probes 2 remote leaves x (2 or 3) paths; over 10
	// intervals that is 40-60 probes.
	sent := probers[0].ProbesSent
	if sent < 40 || sent > 66 {
		t.Fatalf("prober sent %d probes in 10 intervals, want 40..66", sent)
	}
}

func TestProberDetectsLossyPath(t *testing.T) {
	eng, nw, mons, _ := proberSetup(t, 500*sim.Microsecond)
	// Drop every data-class packet through spine 2 (probes ride the data
	// class; echoes are high priority but also traverse it).
	nw.Spines[2].AddDropFn(func(p *net.Packet) bool { return p.Kind == net.Probe })
	eng.Run(100 * sim.Millisecond)
	if got := mons[0].Type(1, 2); got != Failed {
		t.Fatalf("fully probe-dropping path = %v, want failed", got)
	}
	// Healthy paths stay usable.
	if mons[0].Type(1, 0) == Failed {
		t.Fatal("healthy path misdiagnosed")
	}
}

// TestProberTimeoutsExpireAtDeadlineAndStopIsFinal pins the probe-timeout
// FIFO to the per-probe semantics it replaced: every unanswered probe is
// declared lost exactly ProbeTimeout after it was sent, and Stop drops all
// pending probes so none is ever declared lost afterwards.
func TestProberTimeoutsExpireAtDeadlineAndStopIsFinal(t *testing.T) {
	const interval = 500 * sim.Microsecond
	eng, nw, _, probers := proberSetup(t, interval)
	for _, s := range nw.Spines {
		s.AddDropFn(func(p *net.Packet) bool { return p.Kind == net.Probe })
	}
	p := probers[0]
	timeout := p.timeout
	eng.Run(interval) // the first tick fires at t = interval
	first := p.ProbesSent
	if first == 0 {
		t.Fatal("first tick sent no probes")
	}
	eng.Run(interval + timeout - 1)
	if p.ProbesLost != 0 {
		t.Fatalf("%d probes lost before their deadline", p.ProbesLost)
	}
	if p.PendingProbes() != int(p.ProbesSent) {
		t.Fatalf("pending = %d, want all %d sent probes", p.PendingProbes(), p.ProbesSent)
	}
	eng.Run(interval + timeout)
	if p.ProbesLost != first {
		t.Fatalf("lost %d at the first deadline, want the first tick's %d", p.ProbesLost, first)
	}
	for _, q := range probers {
		q.Stop()
	}
	if p.PendingProbes() != 0 {
		t.Fatalf("pending after Stop = %d, want 0", p.PendingProbes())
	}
	lost := p.ProbesLost
	eng.Run(interval + 3*timeout)
	if p.ProbesLost != lost {
		t.Fatalf("stopped prober declared %d more probes lost", p.ProbesLost-lost)
	}
}

func TestProbeOverheadSmall(t *testing.T) {
	eng, nw, _, probers := proberSetup(t, 500*sim.Microsecond)
	eng.Run(100 * sim.Millisecond)
	bps := float64(probers[0].ProbeBytes) * 8 / 0.1
	frac := bps / float64(nw.Cfg.HostRateBps)
	// §3.1.3: per-agent overhead should be far below brute force; with 2
	// remote leaves and 3 probes each per 500us this is ~6 Mbps per agent.
	if frac > 0.01 {
		t.Fatalf("probe overhead %.4f of access link, want < 1%%", frac)
	}
}

func TestMonitorSizedByNPathsWithCables(t *testing.T) {
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2, CablesPerLink: 2,
		HostRateBps: 1e9, FabricRateBps: 1e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(nw)
	m := NewMonitor(nw, 0, p)
	// All four cable-paths must be addressable.
	for q := 0; q < 4; q++ {
		m.OnDelivery(1, q, false, 100*sim.Microsecond)
		if m.State(1, q).RTT() == 0 {
			t.Fatalf("path %d state not tracked", q)
		}
	}
	// Out-of-range stays rejected.
	m.OnDelivery(1, 4, false, 100*sim.Microsecond) // must not panic
}

func TestProberCoversCablePaths(t *testing.T) {
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2, CablesPerLink: 2,
		HostRateBps: 1e9, FabricRateBps: 1e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(nw)
	InstallProbeResponders(nw)
	m := NewMonitor(nw, 0, p)
	agents := []*net.Host{nw.Hosts[0], nw.Hosts[2]}
	NewProber(m, sim.NewRNG(2), agents)
	eng.Run(50 * sim.Millisecond)
	sampled := 0
	for q := 0; q < 4; q++ {
		if m.State(1, q).RTT() > 0 {
			sampled++
		}
	}
	if sampled < 3 {
		t.Fatalf("probing covered only %d of 4 cable paths", sampled)
	}
}
