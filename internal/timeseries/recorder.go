package timeseries

import (
	"sync"

	"github.com/hermes-repro/hermes/internal/sim"
)

// Defaults for the flight recorder.
const (
	// DefaultInterval is the sampling period when none is configured:
	// fine enough to see queue buildup at 10 Gbps, coarse enough that a
	// 2 s run fits the default ring.
	DefaultInterval = 100 * sim.Microsecond
	// DefaultCap bounds the retained samples per series.
	DefaultCap = 8192
	// DefaultMaxTransitions bounds the path-state transition log.
	DefaultMaxTransitions = 65536
)

// Schema identifies the recording layout; bump on breaking changes.
const Schema = "hermes-timeseries/v1"

// Meta identifies the run a recording came from. All fields are simulation
// values, so two runs of the same (config, seed) produce identical metas.
type Meta struct {
	Schema        string  `json:"schema"`
	Scheme        string  `json:"scheme,omitempty"`
	Workload      string  `json:"workload,omitempty"`
	Load          float64 `json:"load,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Failure       string  `json:"failure,omitempty"`
	IntervalNs    int64   `json:"interval_ns"`
	Cap           int     `json:"cap"`
	SimDurationNs int64   `json:"sim_duration_ns,omitempty"`
}

// Transition is one Hermes path-state change: the rack monitor at Leaf
// re-characterized (Dst, Path) from From to To because of Cause.
type Transition struct {
	AtNs  int64  `json:"at_ns"`
	Leaf  int    `json:"leaf"`
	Dst   int    `json:"dst"`
	Path  int    `json:"path"`
	From  string `json:"from"`
	To    string `json:"to"`
	Cause string `json:"cause"`
}

// Transition causes. Verdict transitions carry "verdict:" plus the
// telemetry audit reason (blackhole, probe-loss, silent-drop).
const (
	CauseAck         = "ack"          // RTT/ECN sample echoed by a data ACK
	CauseProbe       = "probe"        // RTT/ECN sample from an active probe
	CauseTimeout     = "timeout"      // RTO-driven signal intake
	CauseHoldExpired = "hold-expired" // failure quarantine lapsed at a sweep
	CauseVerdict     = "verdict:"     // prefix; suffixed with the audit reason
)

// probe is one registered pull-style sampler.
type probe struct {
	name string
	fn   func() float64
}

// Recorder samples registered probes every Interval of virtual time into
// aligned series, ring-capped when Cap > 0. As a run's flight recorder it
// also keeps the Hermes transition log, appended as transitions happen and
// bounded by MaxTransitions.
//
// A nil *Recorder is the disabled state: every method is a no-op, so
// instrumentation sites can call unconditionally.
//
// The recorder is written by exactly one goroutine (the simulation), but may
// be read concurrently by status-server goroutines through the accessors and
// SnapshotSince. mu seals each row: Snap evaluates every probe first, then
// publishes the complete row under the lock, so a concurrent reader never
// observes a torn (appended-but-half-filled) sample.
type Recorder struct {
	Eng      *sim.Engine
	Interval sim.Time // sampling period (<= 0 picks DefaultInterval)
	Cap      int      // retained samples per series (<= 0 keeps all; NewRecorder picks DefaultCap)
	// MaxTransitions caps the transition log (<= 0 picks the default;
	// negative after New means unbounded is not supported).
	MaxTransitions int

	// Meta is stamped by the run harness before export.
	Meta Meta

	mu          sync.Mutex
	cols        Columns
	probes      []probe
	probeIdx    map[string]int
	tickFns     []func()
	onSample    []func(atNs int64)
	scratch     []float64 // probe values staged outside the lock
	transitions []Transition
	// DroppedTransitions counts log entries discarded at the cap. Written
	// under mu; read it only from the simulation goroutine or after the run.
	DroppedTransitions int
	stopped            bool
}

// NewRecorder builds an enabled recorder on the engine with defaulted
// interval and caps.
func NewRecorder(eng *sim.Engine, interval sim.Time, cap, maxTransitions int) *Recorder {
	if interval <= 0 {
		interval = DefaultInterval
	}
	if cap <= 0 {
		cap = DefaultCap
	}
	if maxTransitions <= 0 {
		maxTransitions = DefaultMaxTransitions
	}
	r := &Recorder{Eng: eng, Interval: interval, Cap: cap, MaxTransitions: maxTransitions}
	r.cols.Cap = cap
	return r
}

// Register adds (or replaces) a pull-style sampler evaluated once per
// sample instant, in registration order. A probe registered on one recorder
// only may carry state — it is called exactly once per retained instant, so
// read-and-reset samplers (interval peaks, counter deltas) are well-defined.
// A probe shared with another sink (a telemetry.GaugeFunc, which Values also
// evaluates) must be a pure read.
func (r *Recorder) Register(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	if i, ok := r.probeIdx[name]; ok {
		r.probes[i].fn = fn
		return
	}
	if r.probeIdx == nil {
		r.probeIdx = map[string]int{}
	}
	r.probeIdx[name] = len(r.probes)
	r.probes = append(r.probes, probe{name, fn})
}

// AtTick registers a hook run at the start of every sample instant, before
// probes are read. The monitor transition sweeps hang here so quarantine
// expiries are caught within one interval.
func (r *Recorder) AtTick(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.tickFns = append(r.tickFns, fn)
}

// OnSample registers a hook run on the simulation goroutine after every
// sealed sample row, with the row's instant. The alert evaluator hangs here:
// by the time the hook runs the row is published and the recorder lock is
// released, so the hook may call LatestValue and the snapshot accessors
// freely.
func (r *Recorder) OnSample(fn func(atNs int64)) {
	if r == nil || fn == nil {
		return
	}
	r.onSample = append(r.onSample, fn)
}

// ProbeNames returns the registered probe names in registration order. Only
// call from the simulation goroutine (the slice is appended to by Register).
func (r *Recorder) ProbeNames() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.probes))
	for i, p := range r.probes {
		out[i] = p.name
	}
	return out
}

// LatestValue returns the named series' value at the most recent sample
// row, or ok=false when the series does not exist or no row has been
// appended yet. Safe for concurrent use with Snap.
func (r *Recorder) LatestValue(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cols.Len() == 0 {
		return 0, false
	}
	i, ok := r.cols.index[name]
	if !ok {
		return 0, false
	}
	return r.cols.cols[i][r.cols.cur()], true
}

// AddTransition appends one path-state transition, honoring the cap.
func (r *Recorder) AddTransition(t Transition) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.MaxTransitions > 0 && len(r.transitions) >= r.MaxTransitions {
		r.DroppedTransitions++
		return
	}
	r.transitions = append(r.transitions, t)
}

// Start schedules the first sample one interval from now.
func (r *Recorder) Start() {
	if r == nil || r.Eng == nil {
		return
	}
	if r.Interval <= 0 {
		r.Interval = DefaultInterval
	}
	r.Eng.ScheduleKind(r.Interval, sim.KindSample, r.tick)
}

// Stop ends sampling after the current tick.
func (r *Recorder) Stop() {
	if r != nil {
		r.stopped = true
	}
}

func (r *Recorder) tick() {
	if r.stopped {
		return
	}
	r.Snap()
	r.Eng.ScheduleKind(r.Interval, sim.KindSample, r.tick)
}

// Snap takes one sample immediately (also used for the final sweep at run
// end so the last interval always appears).
//
// Tick hooks and probes run before the lock is taken — they read and mutate
// simulation state, which concurrent snapshot readers never touch — and the
// completed row is then published atomically, so SnapshotSince observes only
// sealed rows.
func (r *Recorder) Snap() {
	if r == nil || r.Eng == nil {
		return
	}
	for _, fn := range r.tickFns {
		fn()
	}
	r.scratch = r.scratch[:0]
	for _, p := range r.probes {
		r.scratch = append(r.scratch, p.fn())
	}
	at := int64(r.Eng.Now())
	r.mu.Lock()
	r.cols.Append(at)
	for i, p := range r.probes {
		r.cols.Put(p.name, r.scratch[i])
	}
	r.mu.Unlock()
	// Sample hooks (the alert evaluator) run after the row is sealed and
	// the lock released: they read the row back through LatestValue.
	for _, fn := range r.onSample {
		fn(at)
	}
}

// Len returns the number of retained sample instants.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cols.Len()
}

// TruncatedSamples returns the instants discarded at the ring cap.
func (r *Recorder) TruncatedSamples() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cols.Truncated()
}

// Times returns the retained sample instants in chronological order.
func (r *Recorder) Times() []int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cols.Times()
}

// Names returns the series names in sorted order.
func (r *Recorder) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cols.Names()
}

// Series returns one named series aligned with Times (nil when absent).
func (r *Recorder) Series(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cols.Series(name)
}

// Transitions returns the path-state transition log in record order. The
// slice is shared with the recorder; do not mutate it.
func (r *Recorder) Transitions() []Transition {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.transitions
}
