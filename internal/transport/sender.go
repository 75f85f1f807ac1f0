package transport

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// trySend transmits as many segments as the congestion window allows,
// pulling more bytes from an MPTCP group's shared buffer when the subflow
// runs dry.
func (f *Flow) trySend() {
	if f.group != nil && f.sndNxt >= f.Size {
		f.group.pull(f)
	}
	for !f.Done && f.sndNxt < f.Size {
		inflight := float64(f.sndNxt - f.cumAck)
		if inflight >= f.cwnd {
			break
		}
		payload := int64(net.MSS)
		if rem := f.Size - f.sndNxt; rem < payload {
			payload = rem
		}
		f.sendSegment(f.sndNxt, int(payload), f.sndNxt < f.highestEver())
		f.sndNxt += payload
	}
}

// highestEver tracks whether a send is a retransmission: after an RTO we
// roll sndNxt back, so anything below the high-water mark is a resend.
func (f *Flow) highestEver() int64 { return f.hiWater }

func (f *Flow) sendSegment(seq int64, payload int, retx bool) {
	ep := f.ep
	now := ep.tr.Eng.Now()
	path := ep.bal.SelectPath(f)
	if path != f.CurPath && f.started {
		f.PathChanges++
	}
	f.CurPath = path
	f.started = true
	pkt := ep.tr.Net.AllocPacket()
	*pkt = net.Packet{
		Kind:    net.Data,
		Flow:    f.ID,
		Src:     f.Src,
		Dst:     f.Dst,
		Seq:     seq,
		Payload: payload,
		Wire:    payload + net.HeaderBytes,
		ECT:     ep.tr.Opts.Protocol == DCTCP,
		Path:    path,
		SentAt:  now,
		Retx:    retx,
	}
	ep.host.Send(pkt)
	f.dre.Add(payload, now)
	ep.bal.OnSent(f, path, payload)
	if seq+int64(payload) > f.hiWater {
		f.hiWater = seq + int64(payload)
	}
	if !f.rtoTimer.Armed() {
		f.armRTO()
	}
}

func (f *Flow) retransmitFirst() {
	f.ep.tr.Retransmits++
	payload := int64(net.MSS)
	if rem := f.Size - f.cumAck; rem < payload {
		payload = rem
	}
	f.sendSegment(f.cumAck, int(payload), true)
}

// rto returns the current retransmission timeout with backoff applied.
func (f *Flow) rto() sim.Time {
	base := f.ep.tr.Opts.RTOMin
	if f.srtt > 0 {
		est := sim.Time(f.srtt + 4*f.rttvar)
		if est > base {
			base = est
		}
	}
	backoff := f.rtoBackoff
	if max := f.ep.tr.Opts.MaxRTOBackoff; backoff > max {
		backoff = max
	}
	return base << uint(backoff)
}

// armRTO (re)sets the retransmission deadline. The timer is lazy: a re-arm,
// which happens on every ACK that advances the window, only moves the
// deadline and queues no engine event (see sim.Timer).
func (f *Flow) armRTO() {
	f.rtoTimer.Arm(f.ep.tr.Eng.Now() + f.rto())
}

func flowRTO(a1, _ any) { a1.(*Flow).onRTO() }

func (f *Flow) rearmRTO() {
	if f.cumAck < f.sndNxt || f.sndNxt < f.Size {
		f.armRTO()
	} else {
		f.rtoTimer.Stop()
	}
}

func (f *Flow) onRTO() {
	if f.Done {
		return
	}
	f.ep.tr.Timeouts++
	f.ep.tr.telemCwnd.Observe(f.cwnd)
	f.timeouts++
	f.TimedOut = true
	f.rtoBackoff++
	f.inRecovery = false
	f.dupacks = 0
	f.ssthresh = maxf(f.cwnd/2, 2*net.MSS)
	f.cwnd = net.MSS
	// Go-back-N: roll the send point back to the cumulative ACK. Segments
	// the receiver already has will be re-ACKed cumulatively and the window
	// advances quickly.
	f.sndNxt = f.cumAck
	f.ep.bal.OnTimeout(f, f.CurPath)
	f.armRTO()
	f.trySend()
}

// onAckPacket processes one ACK for this flow.
func (f *Flow) onAckPacket(pkt *net.Packet) {
	if f.Done {
		return
	}
	tr := f.ep.tr
	now := tr.Eng.Now()

	var rtt sim.Time
	if !pkt.Retx && pkt.EchoSent > 0 {
		rtt = now - pkt.EchoSent
		f.updateRTT(rtt)
		if tr.Opts.Protocol == Timely {
			f.timelyUpdate(rtt)
		}
	}
	ev := AckEvent{Path: pkt.EchoPath, RTT: rtt, ECE: pkt.EchoCE, QueueNs: pkt.EchoQueue}

	if pkt.AckSeq > f.cumAck {
		newly := pkt.AckSeq - f.cumAck
		f.cumAck = pkt.AckSeq
		if f.cumAck > f.sndNxt {
			// ACK covers data sent before an RTO rollback.
			f.sndNxt = f.cumAck
		}
		f.dupacks = 0
		f.rtoBackoff = 0
		ev.NewlyAcked = newly
		f.ep.bal.OnAck(f, ev)

		f.dctcpOnAck(newly, pkt.EchoCE)

		if f.inRecovery {
			if f.cumAck >= f.recoverSeq {
				f.inRecovery = false
				f.cwnd = f.ssthresh
			} else {
				// NewReno partial ACK: retransmit the next hole.
				f.retransmitFirst()
			}
		} else {
			f.growCwnd(newly)
		}
		f.rearmRTO()

		if f.cumAck >= f.Size {
			if f.group != nil && f.group.pull(f) {
				f.rearmRTO()
			} else {
				f.finish(now)
				return
			}
		}
	} else {
		f.dupacks++
		ev.Dup = true
		f.ep.bal.OnAck(f, ev)
		if !f.inRecovery && f.dupacks >= tr.Opts.DupThresh {
			f.inRecovery = true
			f.recoverSeq = f.sndNxt
			f.ssthresh = maxf(f.cwnd/2, 2*net.MSS)
			f.cwnd = f.ssthresh
			f.retransmitFirst()
			f.ep.bal.OnRetransmit(f, pkt.EchoPath)
		}
	}
	f.trySend()
}

func (f *Flow) growCwnd(newly int64) {
	if f.ep.tr.Opts.Protocol == Timely {
		return // the window is driven by the rate controller
	}
	if f.cwnd < f.ssthresh {
		f.cwnd += float64(newly) // slow start
	} else {
		f.cwnd += float64(net.MSS) * float64(newly) / f.cwnd // byte-counting CA
	}
}

// dctcpOnAck maintains the marked-byte fraction estimator alpha and applies
// the proportional window reduction at most once per window of data.
func (f *Flow) dctcpOnAck(newly int64, ece bool) {
	if f.ep.tr.Opts.Protocol != DCTCP {
		return
	}
	f.bytesAcked += newly
	if ece {
		f.bytesMarked += newly
	}
	if f.cumAck >= f.alphaSeq {
		if f.bytesAcked > 0 {
			frac := float64(f.bytesMarked) / float64(f.bytesAcked)
			g := f.ep.tr.Opts.G
			f.alpha = (1-g)*f.alpha + g*frac
		}
		f.bytesAcked, f.bytesMarked = 0, 0
		f.alphaSeq = f.sndNxt
	}
	if ece && f.cumAck > f.cwrSeq {
		f.cwnd = maxf(f.cwnd*(1-f.alpha/2), net.MSS)
		f.ssthresh = f.cwnd
		f.cwrSeq = f.sndNxt
	}
}

func (f *Flow) updateRTT(rtt sim.Time) {
	r := float64(rtt)
	if f.srtt == 0 {
		f.srtt = r
		f.rttvar = r / 2
		return
	}
	d := f.srtt - r
	if d < 0 {
		d = -d
	}
	f.rttvar = 0.75*f.rttvar + 0.25*d
	f.srtt = 0.875*f.srtt + 0.125*r
}

func (f *Flow) finish(now sim.Time) {
	f.Done = true
	f.EndAt = now
	f.rtoTimer.Stop()
	tr := f.ep.tr
	delete(f.ep.flows, f.ID)
	delete(tr.active, f.ID)
	tr.finished++
	tr.telemCwnd.Observe(f.cwnd)
	if tr.Opts.Protocol == DCTCP {
		tr.telemAlpha.Observe(f.alpha)
	}
	f.ep.bal.OnFlowDone(f)
	if tr.fctRing != nil && !f.Hidden {
		tr.recordFCT(float64(f.EndAt-f.StartAt) / 1e6)
	}
	if tr.OnFlowDone != nil && !f.Hidden {
		tr.OnFlowDone(f)
	}
	if f.group != nil {
		f.group.childDone(f, now)
	}
	if f.rep != nil {
		f.rep.childDone(f, now)
	}
}

func (ep *Endpoint) onAck(pkt *net.Packet) {
	if f, ok := ep.flows[pkt.Flow]; ok {
		f.onAckPacket(pkt)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
