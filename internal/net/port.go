package net

import "github.com/hermes-repro/hermes/internal/sim"

// Port is one direction of a link: an output queue plus a transmitter. It
// implements strict two-level priority (ACKs/probe-echoes above data), a
// drop-tail data queue, instantaneous-queue ECN marking as configured for
// DCTCP, and a DRE that tracks link utilization for CONGA-style sensing.
type Port struct {
	eng *sim.Engine

	// Name identifies the port in diagnostics, e.g. "leaf0->spine2".
	Name string

	rateBps   int64    // link capacity in bits per second
	propDelay sim.Time // one-way propagation delay
	queueCap  int      // data-queue capacity in bytes
	ecnK      int      // ECN marking threshold in bytes (0 disables)

	deliver func(*Packet) // invoked at the far end after propagation
	// recycle, when non-nil, receives packets this port drops so a pool can
	// reuse them. Set by Network on fabric ports; nil on standalone ports.
	recycle func(*Packet)

	hi, lo           pktRing
	hiBytes, loBytes int
	busy             bool
	// holding counts packets this port currently owns: queued, transmitting,
	// or propagating toward the far end. The conservation invariant sums it
	// fabric-wide.
	holding int64

	// OnTx, if set, runs when a packet starts transmission on this port
	// (after the DRE update). CONGA uses it to stamp congestion metrics.
	OnTx func(*Packet)

	// onDrop/onMark, when non-nil, observe every packet this port drops or
	// ECN-marks. Installed fabric-wide by Network.SetTraceHooks; each costs
	// one nil check on its (rare) path when tracing is off.
	onDrop func(*Packet)
	onMark func(*Packet)

	dre DRE

	// Counters.
	TxBytes   uint64
	TxPackets uint64
	Drops     uint64
	ECNMarks  uint64

	// hiWater is the deepest data-queue occupancy seen, busyTime the total
	// virtual time spent transmitting. Both are plain adds on the hot path
	// so they stay on even when the telemetry registry is disabled.
	hiWater  int
	busyTime sim.Time

	// peakOn arms interval peak tracking for the flight recorder: when set,
	// samplePeak follows the deepest data-queue occupancy since the last
	// TakeQueuePeak. One predictable branch in Enqueue when disarmed.
	peakOn     bool
	samplePeak int
}

// PortConfig carries the physical parameters of a port.
type PortConfig struct {
	RateBps   int64
	PropDelay sim.Time
	QueueCap  int // bytes; <=0 picks a rate-based default
	ECNK      int // bytes; <0 picks a rate-based default, 0 disables
}

// DefaultECNK returns the instantaneous-queue marking threshold used for a
// link of the given capacity: 30 KB at 1 Gbps (the paper's testbed uses
// 30 KB with ~100us base RTT), 95 KB (= 65 full segments) at 10 Gbps, with
// linear interpolation in between and proportional scaling outside.
func DefaultECNK(rateBps int64) int {
	const (
		oneG = 1_000_000_000
		tenG = 10_000_000_000
		kLo  = 30_000
		kHi  = 95_000
	)
	switch {
	case rateBps <= 0:
		return 0
	case rateBps <= oneG:
		return int(float64(kLo) * float64(rateBps) / float64(oneG))
	case rateBps >= tenG:
		return int(float64(kHi) * float64(rateBps) / float64(tenG))
	default:
		frac := float64(rateBps-oneG) / float64(tenG-oneG)
		return kLo + int(frac*(kHi-kLo))
	}
}

// DefaultQueueCap returns the drop-tail data-queue capacity for a link of
// the given rate: about five times the ECN threshold, which leaves DCTCP
// headroom while still allowing overload drops.
func DefaultQueueCap(rateBps int64) int {
	k := DefaultECNK(rateBps)
	if k == 0 {
		return 150_000
	}
	return 5 * k
}

// NewPort builds a port. deliver is called with each packet propDelay after
// its transmission completes.
func NewPort(eng *sim.Engine, name string, cfg PortConfig, deliver func(*Packet)) *Port {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap(cfg.RateBps)
	}
	if cfg.ECNK < 0 {
		cfg.ECNK = DefaultECNK(cfg.RateBps)
	}
	return &Port{
		eng:       eng,
		Name:      name,
		rateBps:   cfg.RateBps,
		propDelay: cfg.PropDelay,
		queueCap:  cfg.QueueCap,
		ecnK:      cfg.ECNK,
		deliver:   deliver,
		dre:       NewDRE(DefaultDRETau),
	}
}

// RateBps returns the configured capacity in bits per second.
func (p *Port) RateBps() int64 { return p.rateBps }

// SetRateBps re-configures the link capacity (used to model degraded links
// in asymmetric topologies) and rescales the ECN threshold and queue size,
// preserving the configured queue-depth-to-threshold ratio.
func (p *Port) SetRateBps(rate int64) {
	factor := 5
	if p.ecnK > 0 && p.queueCap > 0 {
		factor = p.queueCap / p.ecnK
		if factor < 1 {
			factor = 1
		}
	}
	p.rateBps = rate
	p.ecnK = DefaultECNK(rate)
	if p.ecnK > 0 {
		p.queueCap = factor * p.ecnK
	} else {
		p.queueCap = DefaultQueueCap(rate)
	}
}

// QueueCapBytes returns the drop-tail data-queue capacity in bytes. Alert
// thresholds (queue-saturation) are sized against it.
func (p *Port) QueueCapBytes() int { return p.queueCap }

// PropDelay returns the one-way propagation delay.
func (p *Port) PropDelay() sim.Time { return p.propDelay }

// SetPropDelay re-configures the propagation delay (used to model long or
// skewed paths in tests and micro-benchmarks).
func (p *Port) SetPropDelay(d sim.Time) { p.propDelay = d }

// Down reports whether the link is cut (zero capacity).
func (p *Port) Down() bool { return p.rateBps <= 0 }

// QueuedBytes returns the bytes waiting in the data queue (DRILL's signal).
func (p *Port) QueuedBytes() int { return p.loBytes }

// QueueHiWater returns the high-watermark of the data-queue depth in bytes.
func (p *Port) QueueHiWater() int { return p.hiWater }

// BusyTime returns the cumulative virtual time this port spent transmitting
// (its utilization integral; divide by elapsed time for mean utilization).
func (p *Port) BusyTime() sim.Time { return p.busyTime }

// UtilQuantized returns the CONGA 3-bit utilization metric of this port.
func (p *Port) UtilQuantized(now sim.Time) uint8 {
	return p.dre.Quantize(now, p.rateBps, 8)
}

// DREQuant returns the DRE utilization metric quantized to the given number
// of levels.
func (p *Port) DREQuant(now sim.Time, levels int) uint8 {
	return p.dre.Quantize(now, p.rateBps, levels)
}

// UtilFraction returns the estimated utilization of the port in [0, ~1+].
func (p *Port) UtilFraction(now sim.Time) float64 {
	if p.rateBps <= 0 {
		return 1
	}
	return p.dre.RateBps(now) / float64(p.rateBps)
}

// EnablePeakSampling arms per-interval queue-peak tracking for the flight
// recorder.
func (p *Port) EnablePeakSampling() {
	p.peakOn = true
	p.samplePeak = p.loBytes
}

// TakeQueuePeak returns the deepest data-queue occupancy since the previous
// call and resets the tracker to the current depth (read-and-reset; sampled
// once per recorder interval).
func (p *Port) TakeQueuePeak() int {
	peak := p.samplePeak
	p.samplePeak = p.loBytes
	return peak
}

// Enqueue accepts a packet for transmission. Data-class packets beyond the
// queue capacity are dropped silently (drop-tail); ECN-capable packets are
// marked when the instantaneous data-queue depth exceeds the threshold.
func (p *Port) Enqueue(pkt *Packet) {
	if p.Down() {
		p.Drops++
		p.drop(pkt)
		return
	}
	pkt.EnqAt = p.eng.Now()
	if pkt.IsHighPriority() {
		p.hi.push(pkt)
		p.hiBytes += pkt.Wire
	} else {
		if p.loBytes+pkt.Wire > p.queueCap {
			p.Drops++
			p.drop(pkt)
			return
		}
		p.lo.push(pkt)
		p.loBytes += pkt.Wire
		if p.loBytes > p.hiWater {
			p.hiWater = p.loBytes
		}
		if p.peakOn && p.loBytes > p.samplePeak {
			p.samplePeak = p.loBytes
		}
		if p.ecnK > 0 && pkt.ECT && p.loBytes > p.ecnK {
			pkt.CE = true
			p.ECNMarks++
			if p.onMark != nil {
				p.onMark(pkt)
			}
		}
	}
	p.holding++
	if !p.busy {
		p.transmitNext()
	}
}

// drop hands a refused packet to the pool, if any, after notifying the trace
// hook.
func (p *Port) drop(pkt *Packet) {
	if p.onDrop != nil {
		p.onDrop(pkt)
	}
	if p.recycle != nil {
		p.recycle(pkt)
	}
}

// Holding returns the number of packets this port currently owns (queued,
// transmitting, or propagating toward the far end).
func (p *Port) Holding() int64 { return p.holding }

func (p *Port) transmitNext() {
	if p.Down() {
		// The link was cut mid-transmission: whatever still waits behind
		// the departed packet dies as down-link drops, as a later Enqueue
		// would.
		p.dropQueued(&p.hi)
		p.dropQueued(&p.lo)
		p.hiBytes, p.loBytes = 0, 0
		p.busy = false
		return
	}
	var pkt *Packet
	switch {
	case p.hi.n > 0:
		pkt = p.hi.pop()
		p.hiBytes -= pkt.Wire
	case p.lo.n > 0:
		pkt = p.lo.pop()
		p.loBytes -= pkt.Wire
	default:
		p.busy = false
		return
	}
	p.busy = true
	now := p.eng.Now()
	p.dre.Add(pkt.Wire, now)
	if p.OnTx != nil {
		p.OnTx(pkt)
	}
	txTime := sim.Time(int64(pkt.Wire) * 8 * sim.Second / p.rateBps)
	p.busyTime += txTime
	// Delay decomposition: this hop's queue wait, serialization and the
	// propagation leg about to start. Plain adds on pooled fields.
	wait := now - pkt.EnqAt
	pkt.QueueNs += wait
	if pkt.Hops < MaxHops {
		pkt.HopQueue[pkt.Hops] = wait
	}
	pkt.SerNs += txTime
	pkt.PropNs += p.propDelay
	pkt.Hops++
	// Pre-bound callbacks keep the two hottest scheduling sites in the whole
	// simulator free of closure allocations.
	p.eng.ScheduleCallKind(txTime, sim.KindPortTx, portTxDone, p, pkt)
}

// dropQueued discards every packet in q as a down-link drop.
func (p *Port) dropQueued(q *pktRing) {
	for q.n > 0 {
		p.Drops++
		p.holding--
		p.drop(q.pop())
	}
}

// portTxDone fires when a packet's last bit leaves the transmitter: start
// the propagation leg and pull the next packet from the queues.
func portTxDone(a1, a2 any) {
	p, pkt := a1.(*Port), a2.(*Packet)
	p.TxBytes += uint64(pkt.Wire)
	p.TxPackets++
	p.eng.ScheduleCallKind(p.propDelay, sim.KindPropagate, portPropagated, p, pkt)
	p.transmitNext()
}

// portPropagated fires when the packet reaches the far end of the link.
func portPropagated(a1, a2 any) {
	p, pkt := a1.(*Port), a2.(*Packet)
	p.holding--
	p.deliver(pkt)
}

// pktRing is a growable FIFO ring buffer of packets: O(1) push and pop, no
// per-dequeue memmove (queues hold hundreds of packets at 10 Gbps).
type pktRing struct {
	buf  []*Packet
	head int
	n    int
}

func (r *pktRing) push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
}

func (r *pktRing) pop() *Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return p
}

func (r *pktRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]*Packet, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}
