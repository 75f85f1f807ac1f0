package core

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// Prober implements §3.1.3: one probe agent per rack measures the paths to
// every other rack each interval, probing two random paths plus the
// previously best one (power of two choices with memory), and shares the
// results through the rack's Monitor. Probes ride the data queue so they
// sample the congestion data would see; echoes return at high priority.
type Prober struct {
	Mon *Monitor
	Rng *sim.RNG

	// Agent is the probing host of this rack (the paper picks one
	// hypervisor per rack to amortize overhead 100x).
	Agent *net.Host
	// RemoteAgents[d] is the probe agent of leaf d.
	RemoteAgents []*net.Host

	interval sim.Time
	timeout  sim.Time

	prevBest []int // per destination leaf
	nextID   uint64
	pending  map[uint64]pendingProbe

	// Probe timeouts are a constant offset from send time, so they expire
	// in send order: deadlines is a FIFO served by one queued wakeup, wake,
	// at the head's (deadline, reserved seq). Answered probes stay queued
	// and are skipped when they reach the head, so an echo cancels nothing.
	deadlines []probeDeadline
	wake      *sim.Event

	// ProbesSent / ProbeBytes quantify the Table 6 overhead.
	ProbesSent uint64
	ProbeBytes uint64
	ProbesLost uint64

	stopped bool
}

type pendingProbe struct {
	dstLeaf int
	path    int
}

// probeDeadline is one probe's timeout position: the instant it expires and
// the sequence number reserved when it was sent, which is exactly where a
// per-probe timeout event scheduled at send time would have fired.
type probeDeadline struct {
	id  uint64
	at  sim.Time
	seq uint64
}

// NewProber wires the agent host's probe handlers and starts the periodic
// probing loop. Call once per rack after transport endpoints are attached.
func NewProber(mon *Monitor, rng *sim.RNG, agents []*net.Host) *Prober {
	p := &Prober{
		Mon:          mon,
		Rng:          rng,
		Agent:        agents[mon.SrcLeaf],
		RemoteAgents: agents,
		interval:     mon.P.ProbeInterval,
		timeout:      mon.P.ProbeTimeout,
		pending:      map[uint64]pendingProbe{},
		prevBest:     make([]int, len(agents)),
	}
	for i := range p.prevBest {
		p.prevBest[i] = -1
	}
	// Echo handling: any probe reaching this agent is answered; any echo
	// reaching it resolves a pending measurement.
	p.Agent.Handle(net.ProbeEcho, p.onEcho)
	if p.interval > 0 {
		mon.Net.Eng.ScheduleKind(p.interval, sim.KindProbe, p.tick)
	}
	return p
}

// InstallProbeResponders makes every host answer probes with a
// high-priority echo carrying the probe's timestamp, path and CE mark.
// Responders are independent of probers, so they are installed fabric-wide.
func InstallProbeResponders(nw *net.Network) {
	for _, h := range nw.Hosts {
		h := h
		h.Handle(net.Probe, func(pkt *net.Packet) {
			echo := nw.AllocPacket()
			*echo = net.Packet{
				Kind:     net.ProbeEcho,
				Flow:     pkt.Flow,
				Src:      h.ID,
				Dst:      pkt.Src,
				Wire:     net.ProbeBytes,
				Path:     pkt.Path,
				EchoSent: pkt.SentAt,
				EchoPath: pkt.Path,
				EchoCE:   pkt.CE,
				SentAt:   pkt.SentAt,
			}
			h.Send(echo)
		})
	}
}

// PendingProbes returns the number of in-flight probe measurements.
func (p *Prober) PendingProbes() int { return len(p.pending) }

// Stop retires the prober: the periodic tick stops rescheduling and any
// in-flight probe timeouts resolve as no-ops. A what-if fork calls this on
// the outgoing scheme's probers; echo handlers stay installed but find no
// pending entries.
func (p *Prober) Stop() {
	p.stopped = true
	clear(p.pending)
	p.deadlines = p.deadlines[:0]
	if p.wake != nil {
		p.wake.Cancel()
		p.wake = nil
	}
}

func (p *Prober) tick() {
	if p.stopped {
		return
	}
	now := p.Mon.Net.Eng.Now()
	nw := p.Mon.Net
	for d := 0; d < nw.Cfg.Leaves; d++ {
		if d == p.Mon.SrcLeaf {
			continue
		}
		paths := nw.AvailablePaths(p.Mon.SrcLeaf, d)
		targets := p.chooseProbeSet(paths, d)
		for _, path := range targets {
			p.sendProbe(d, path, now)
		}
	}
	p.Mon.Net.Eng.ScheduleKind(p.interval, sim.KindProbe, p.tick)
}

// chooseProbeSet returns two random distinct paths plus the previously best
// one (deduplicated), per the power-of-two-choices-with-memory design.
func (p *Prober) chooseProbeSet(paths []int, dstLeaf int) []int {
	switch len(paths) {
	case 0:
		return nil
	case 1:
		return paths
	case 2:
		return paths
	}
	a, b := p.Rng.TwoDistinct(len(paths))
	set := []int{paths[a], paths[b]}
	if best := p.prevBest[dstLeaf]; best >= 0 && best != set[0] && best != set[1] {
		for _, q := range paths {
			if q == best {
				set = append(set, best)
				break
			}
		}
	}
	return set
}

func (p *Prober) sendProbe(dstLeaf, path int, now sim.Time) {
	p.nextID++
	id := p.nextID
	dst := p.RemoteAgents[dstLeaf]
	seq := p.Mon.Net.Eng.ReserveSeq()
	p.deadlines = append(p.deadlines, probeDeadline{id: id, at: now + p.timeout, seq: seq})
	p.pending[id] = pendingProbe{dstLeaf: dstLeaf, path: path}
	p.armWake()
	p.ProbesSent++
	p.ProbeBytes += net.ProbeBytes
	pkt := p.Mon.Net.AllocPacket()
	*pkt = net.Packet{
		Kind:   net.Probe,
		Flow:   id,
		Src:    p.Agent.ID,
		Dst:    dst.ID,
		Wire:   net.ProbeBytes,
		ECT:    true,
		Path:   path,
		SentAt: now,
	}
	p.Agent.Send(pkt)
}

// armWake drops answered probes from the head of the deadline FIFO and
// queues the wakeup for the first unanswered one, unless one is queued.
func (p *Prober) armWake() {
	if p.wake != nil {
		return
	}
	for len(p.deadlines) > 0 {
		if _, ok := p.pending[p.deadlines[0].id]; ok {
			break
		}
		p.deadlines = p.deadlines[1:]
	}
	if len(p.deadlines) == 0 {
		return
	}
	d := p.deadlines[0]
	p.wake = p.Mon.Net.Eng.AtCallSeq(d.at, d.seq, sim.KindProbe, proberWake, p, nil)
}

// proberWake fires at the head probe's deadline. The head may have been
// answered since the wakeup was queued; then the wakeup is a no-op.
func proberWake(a1, _ any) {
	p := a1.(*Prober)
	p.wake = nil
	id := p.deadlines[0].id
	p.deadlines = p.deadlines[1:]
	if pp, ok := p.pending[id]; ok {
		delete(p.pending, id)
		p.ProbesLost++
		p.Mon.OnProbeResult(pp.dstLeaf, pp.path, true, false, 0)
	}
	p.armWake()
}

func (p *Prober) onEcho(pkt *net.Packet) {
	pp, ok := p.pending[pkt.Flow]
	if !ok {
		return
	}
	delete(p.pending, pkt.Flow)
	now := p.Mon.Net.Eng.Now()
	rtt := now - pkt.EchoSent
	p.Mon.OnProbeResult(pp.dstLeaf, pp.path, false, pkt.EchoCE, rtt)
	// Remember the best (lowest-RTT) probed path for the extra probe.
	best := p.prevBest[pp.dstLeaf]
	if best < 0 || p.Mon.State(pp.dstLeaf, pp.path).RTT() <= p.Mon.State(pp.dstLeaf, best).RTT() {
		p.prevBest[pp.dstLeaf] = pp.path
	}
}
