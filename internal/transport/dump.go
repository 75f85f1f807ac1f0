package transport

import "sort"

// FlowDump is one active flow's checkpoint-visible state: window, DCTCP
// estimator, RTT machinery and — crucially for verified replay — the
// absolute virtual deadline of its pending RTO timer. Floating-point fields
// are carried as-is; both sides of a checkpoint diff are produced by the
// same deterministic arithmetic, so their JSON renderings agree exactly.
type FlowDump struct {
	ID          uint64  `json:"id"`
	Src         int     `json:"src"`
	Dst         int     `json:"dst"`
	Size        int64   `json:"size"`
	StartNs     int64   `json:"start_ns"`
	SentBytes   int64   `json:"sent_bytes"`
	HiWater     int64   `json:"hi_water"`
	AckedBytes  int64   `json:"acked_bytes"`
	Cwnd        float64 `json:"cwnd"`
	Ssthresh    float64 `json:"ssthresh"`
	Dupacks     int     `json:"dupacks"`
	InRecovery  bool    `json:"in_recovery,omitempty"`
	Alpha       float64 `json:"alpha"`
	SRTT        float64 `json:"srtt"`
	RTTVar      float64 `json:"rttvar"`
	RTOBackoff  int     `json:"rto_backoff"`
	RTOAtNs     int64   `json:"rto_at_ns"` // -1 when no timer is pending
	Timeouts    int     `json:"timeouts"`
	CurPath     int     `json:"cur_path"`
	PathChanges int     `json:"path_changes"`
	Hidden      bool    `json:"hidden,omitempty"`
}

// Dump is the transport layer's full observable state: the flow-ID
// allocator, completion and loss counters, the RepFlow racing ledger, and
// every active flow sorted by ID.
type Dump struct {
	NextFlowID      uint64     `json:"next_flow_id"`
	Finished        int        `json:"finished"`
	Retransmits     uint64     `json:"retransmits"`
	Timeouts        uint64     `json:"timeouts"`
	RepFlowsStarted uint64     `json:"repflows_started,omitempty"`
	ReplicaWins     uint64     `json:"replica_wins,omitempty"`
	FlowsCancelled  uint64     `json:"flows_cancelled,omitempty"`
	RedundantBytes  uint64     `json:"redundant_bytes,omitempty"`
	Active          []FlowDump `json:"active"`
}

// Dump captures the transport state. Read-only: no timers touched, no RNG
// draws.
func (t *Transport) Dump() *Dump {
	d := &Dump{
		NextFlowID:      t.nextFlowID,
		Finished:        t.finished,
		Retransmits:     t.Retransmits,
		Timeouts:        t.Timeouts,
		RepFlowsStarted: t.RepFlowsStarted,
		ReplicaWins:     t.ReplicaWins,
		FlowsCancelled:  t.FlowsCancelled,
		RedundantBytes:  t.RedundantBytes,
	}
	for _, f := range t.active {
		fd := FlowDump{
			ID:          f.ID,
			Src:         f.Src,
			Dst:         f.Dst,
			Size:        f.Size,
			StartNs:     f.StartAt,
			SentBytes:   f.sndNxt,
			HiWater:     f.hiWater,
			AckedBytes:  f.cumAck,
			Cwnd:        f.cwnd,
			Ssthresh:    f.ssthresh,
			Dupacks:     f.dupacks,
			InRecovery:  f.inRecovery,
			Alpha:       f.alpha,
			SRTT:        f.srtt,
			RTTVar:      f.rttvar,
			RTOBackoff:  f.rtoBackoff,
			RTOAtNs:     f.rtoTimer.Deadline(),
			Timeouts:    f.timeouts,
			CurPath:     f.CurPath,
			PathChanges: f.PathChanges,
			Hidden:      f.Hidden,
		}
		d.Active = append(d.Active, fd)
	}
	sort.Slice(d.Active, func(i, j int) bool { return d.Active[i].ID < d.Active[j].ID })
	return d
}
