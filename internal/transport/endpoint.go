package transport

import (
	"fmt"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/telemetry"
)

// Transport owns one Endpoint per host and the global flow registry.
type Transport struct {
	Net  *net.Network
	Eng  *sim.Engine
	Opts Options

	Endpoints []*Endpoint

	// OnFlowDone, if set, is invoked when a flow completes.
	OnFlowDone func(*Flow)

	nextFlowID uint64
	active     map[uint64]*Flow
	finished   int

	// Raw loss counters: plain adds on their (rare) paths, always on; both
	// observability sinks sample them (see AttachObservability).
	Retransmits uint64
	Timeouts    uint64

	// fctRing holds the most recent completed-flow FCTs in milliseconds
	// for the flight recorder's tail-latency probe. nil (one predictable
	// branch in finish) unless AttachObservability armed it.
	fctRing    []float64
	fctRingPos int
	fctRingLen int

	// RepFlow accounting (see repflow.go); zero unless StartRepFlow is used.
	RepFlowsStarted uint64 // replicated logical flows opened
	ReplicaWins     uint64 // races won by the replica copy
	FlowsCancelled  uint64 // losing copies aborted by CancelFlow
	RedundantBytes  uint64 // payload bytes the losing copies had sent

	// Report histograms; nil (free) unless AttachObservability was given a
	// registry.
	telemCwnd  *telemetry.Histogram
	telemAlpha *telemetry.Histogram
}

// New wires an endpoint onto every host. balFor supplies the per-host
// balancer (hosts under the same leaf may share state behind the interface,
// as Hermes' rack-level probing does).
func New(nw *net.Network, opts Options, balFor func(h *net.Host) Balancer) *Transport {
	if opts.InitCwndPkts <= 0 {
		opts.InitCwndPkts = 10
	}
	if opts.RTOMin <= 0 {
		opts.RTOMin = 10 * sim.Millisecond
	}
	if opts.DupThresh <= 0 {
		opts.DupThresh = 3
	}
	if opts.G <= 0 {
		opts.G = 1.0 / 16
	}
	if opts.MaxRTOBackoff <= 0 {
		opts.MaxRTOBackoff = 6
	}
	if opts.Protocol == Timely && opts.Timely.THigh == 0 {
		opts.Timely = DefaultTimelyParams(nw.ApproxBaseRTT(), nw.Cfg.HostRateBps)
	}
	tr := &Transport{Net: nw, Eng: nw.Eng, Opts: opts, active: map[uint64]*Flow{}}
	for _, h := range nw.Hosts {
		ep := &Endpoint{
			tr:    tr,
			host:  h,
			bal:   balFor(h),
			flows: map[uint64]*Flow{},
			rcv:   map[uint64]*rcvFlow{},
		}
		h.Handle(net.Data, ep.onData)
		h.Handle(net.Ack, ep.onAck)
		tr.Endpoints = append(tr.Endpoints, ep)
	}
	return tr
}

// StartFlow opens a flow of size bytes from src to dst and begins sending
// immediately.
func (tr *Transport) StartFlow(src, dst int, size int64) *Flow {
	if size < 1 {
		size = 1
	}
	tr.nextFlowID++
	ep := tr.Endpoints[src]
	f := &Flow{
		ID:       tr.nextFlowID,
		Src:      src,
		Dst:      dst,
		SrcLeaf:  tr.Net.LeafOf(src),
		DstLeaf:  tr.Net.LeafOf(dst),
		Size:     size,
		StartAt:  tr.Eng.Now(),
		CurPath:  net.PathAny,
		cwnd:     float64(tr.Opts.InitCwndPkts * net.MSS),
		ssthresh: 1 << 30,
		alphaSeq: 0,
		cwrSeq:   -1,
		dre:      net.NewDRE(0),
		ep:       ep,
	}
	f.rtoTimer.Init(tr.Eng, sim.KindRTO, flowRTO, f, nil)
	ep.flows[f.ID] = f
	tr.active[f.ID] = f
	ep.bal.OnFlowStart(f)
	f.trySend()
	return f
}

// ActiveFlows returns the currently running flows (map shared; read-only).
func (tr *Transport) ActiveFlows() map[uint64]*Flow { return tr.active }

// ActiveCount returns the number of unfinished flows.
func (tr *Transport) ActiveCount() int { return len(tr.active) }

// FinishedCount returns the number of completed flows.
func (tr *Transport) FinishedCount() int { return tr.finished }

// Endpoint is the per-host TCP stack instance.
type Endpoint struct {
	tr    *Transport
	host  *net.Host
	bal   Balancer
	flows map[uint64]*Flow    // flows this host is sending
	rcv   map[uint64]*rcvFlow // flows this host is receiving
}

// Balancer returns the host's balancer (exposed for tests and ablation).
func (ep *Endpoint) Balancer() Balancer { return ep.bal }

// SetBalancer swaps the host's balancer mid-run — the steering half of a
// what-if fork: replay a checkpointed run to its capture instant, then hand
// every endpoint a different scheme's balancer. In-flight flows keep their
// window and path state; the new balancer simply starts receiving their
// SelectPath/OnAck callbacks (schemes assign path state lazily, so a
// mid-life adoption is indistinguishable from a fresh flow to them).
func (ep *Endpoint) SetBalancer(b Balancer) { ep.bal = b }

// Host returns the attached host.
func (ep *Endpoint) Host() *net.Host { return ep.host }

func (ep *Endpoint) String() string {
	return fmt.Sprintf("endpoint(host=%d)", ep.host.ID)
}
