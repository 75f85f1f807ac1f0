package transport

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// rcvFlow is the receiver-side state of one flow. Segments are MSS-aligned,
// so a seq->end map suffices to track out-of-order data.
type rcvFlow struct {
	cumRecv int64
	segs    map[int64]int64 // out-of-order segment start -> end

	// Reordering-buffer state (enabled via Options.ReorderTimeout): while a
	// hole exists, duplicate ACKs are suppressed until the hole persists
	// past the timeout; then the buffer "releases" and dupACKs flow so that
	// genuine losses still trigger fast retransmit. trigger is a copy of the
	// data packet that opened the hole (the fabric recycles the live packet
	// as soon as delivery returns) and buffered the out-of-order segment
	// count at that moment.
	reorderTimer sim.Timer
	reorderOpen  bool
	trigger      net.Packet
	buffered     int
}

func (ep *Endpoint) onData(pkt *net.Packet) {
	r := ep.rcv[pkt.Flow]
	if r == nil {
		r = &rcvFlow{segs: map[int64]int64{}}
		r.reorderTimer.Init(ep.tr.Eng, sim.KindTimer, reorderRelease, ep, r)
		ep.rcv[pkt.Flow] = r
	}
	end := pkt.Seq + int64(pkt.Payload)
	progressed := false
	if end > r.cumRecv {
		if pkt.Seq <= r.cumRecv {
			r.cumRecv = end
			progressed = true
		} else if cur, ok := r.segs[pkt.Seq]; !ok || end > cur {
			r.segs[pkt.Seq] = end
		}
		// Coalesce any buffered segments now contiguous.
		for {
			advanced := false
			for s, e := range r.segs {
				if s <= r.cumRecv {
					if e > r.cumRecv {
						r.cumRecv = e
						progressed = true
					}
					delete(r.segs, s)
					advanced = true
				}
			}
			if !advanced {
				break
			}
		}
	} else {
		// Fully duplicate data (e.g. go-back-N after an RTO): re-ACK so the
		// sender's cumulative state advances.
		progressed = true
	}

	timeout := ep.tr.Opts.ReorderTimeout
	if timeout <= 0 {
		ep.sendAck(pkt, r)
		return
	}

	// Reordering buffer behaviour.
	if progressed {
		if len(r.segs) == 0 {
			r.reorderOpen = false
			r.reorderTimer.Stop()
		}
		ep.sendAck(pkt, r)
		return
	}
	if r.reorderOpen {
		// Hole outlived the timeout: behave like plain TCP (dupACK).
		ep.sendAck(pkt, r)
		return
	}
	if !r.reorderTimer.Armed() {
		r.buffered = len(r.segs)
		r.trigger = *pkt
		r.reorderTimer.Arm(ep.tr.Eng.Now() + timeout)
	}
}

// reorderRelease runs when a hole outlives Options.ReorderTimeout: it opens
// the buffer and emits the dupACKs plain TCP would have produced for the
// segments that arrived past the hole.
func reorderRelease(a1, a2 any) {
	ep, r := a1.(*Endpoint), a2.(*rcvFlow)
	if len(r.segs) == 0 {
		return
	}
	r.reorderOpen = true
	n := len(r.segs)
	if r.buffered > n {
		n = r.buffered
	}
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		ep.sendAck(&r.trigger, r)
	}
}

// sendAck emits a cumulative ACK echoing the triggering data packet's
// timestamp, path and CE bit. The ACK returns over the same path at high
// priority, as in the paper's switch configuration.
func (ep *Endpoint) sendAck(data *net.Packet, r *rcvFlow) {
	ack := ep.tr.Net.AllocPacket()
	*ack = net.Packet{
		Kind:      net.Ack,
		Flow:      data.Flow,
		Src:       data.Dst,
		Dst:       data.Src,
		Wire:      net.AckBytes,
		Path:      data.Path,
		AckSeq:    r.cumRecv,
		EchoSent:  data.SentAt,
		EchoPath:  data.Path,
		EchoCE:    data.CE,
		EchoQueue: data.QueueNs,
		Retx:      data.Retx,
		SentAt:    ep.tr.Eng.Now(),
	}
	ep.host.Send(ack)
}
