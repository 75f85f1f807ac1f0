// Package sim provides a deterministic, single-threaded, event-driven
// simulation engine used by the network model. Time is virtual and measured
// in integer nanoseconds; all events scheduled for the same instant fire in
// scheduling order, which makes runs with the same seed fully reproducible.
//
// The engine is built for the packet-forwarding hot path: the pending-event
// queue is a monotone radix heap (see queue.go) whose push and pop touch a
// bucket slice instead of sifting a comparison heap, fired and cancelled
// events are recycled through a free list, and ScheduleCall lets callers
// schedule a pre-bound function with two receiver arguments so the steady
// state performs no allocation at all.
//
// Timers that move far more often than they fire (TCP retransmission
// timeouts re-armed on every ACK, the receiver reorder timer) use Timer, a
// lazy deadline that keeps one queued wakeup instead of cancelling and
// re-queueing an event per move. ReserveSeq and AtCallSeq let it, and the
// Hermes prober's timeout FIFO, fire at exactly the (time, seq) position an
// event scheduled when the deadline was set would have had, so runs stay
// byte-identical to cancel-and-reschedule while the queue holds only live
// work.
package sim

import "fmt"

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time = int64

// Common duration units, in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// Event lifecycle states.
const (
	stateFree     uint8 = iota // on the engine free list (or zero value)
	stateQueued                // in the pending queue
	stateCanceled              // in the pending queue, will not fire
	stateFired                 // popped and executing/executed
)

// Event is a scheduled callback. The zero value is not usable; events are
// created by the Engine's Schedule/At/ScheduleCall methods. An Event may be
// cancelled before it fires.
//
// Handle lifetime: event structs are recycled through an engine-owned free
// list once they fire or once a cancelled event is popped from the queue.
// A handle is therefore only meaningful until its event fires or is
// cancelled; drop (nil out) stored handles at that point, exactly as the
// callback-clears-its-own-timer pattern in internal/transport does. Calling
// Cancel on a stale handle whose event already fired is a no-op until the
// engine reuses the struct, so holding handles past their event's lifetime
// is a bug (the Config.Checks invariant checker exists to catch the
// resulting double-fire/fire-after-cancel corruption).
//
// A cancelled event stays in the queue until popped, so a deadline that is
// re-armed often should not be a cancelled-and-rescheduled Event: use Timer,
// which owns its wakeup handle and never exposes it.
type Event struct {
	at  Time
	seq uint64 // tie-break: preserves scheduling order at equal times

	// Exactly one of fn and fn2 is set. fn2 with its pre-bound arguments
	// avoids a closure allocation per scheduling on hot paths.
	fn     func()
	fn2    func(a1, a2 any)
	a1, a2 any

	state uint8
	kind  Kind // self-profiling attribution (see profile.go)
}

// At returns the virtual time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// Cancel prevents a queued event from firing. Cancelling an event that
// already fired or was already cancelled is a no-op.
func (e *Event) Cancel() {
	if e.state == stateQueued {
		e.state = stateCanceled
	}
}

// Canceled reports whether the event is currently cancelled and pending
// removal from the queue.
func (e *Event) Canceled() bool { return e.state == stateCanceled }

// Engine is the event loop. It is not safe for concurrent use; the entire
// simulation runs on one goroutine. Create it with NewEngine: the zero value
// is not usable.
type Engine struct {
	now     Time
	q       queue // pending events, popped in (at, seq) order
	seq     uint64
	stopped bool
	fired   uint64

	// Free-list allocator: recycled events plus a block of never-used
	// structs carved out chunk-by-chunk to amortize allocation.
	free  []*Event
	chunk []Event

	// Invariant checking (EnableChecks): disabled by default so the hot
	// loop pays one predictable branch.
	checks     bool
	lastAt     Time
	lastSeq    uint64
	violations []string

	// Self-profiling (EnableProfile): nil by default so the hot loop pays
	// one predictable nil check.
	prof *Profile
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	for i := range e.q.lo {
		e.q.lo[i] = maxTime
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far, useful for
// instrumentation and benchmarks.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled (possibly cancelled) events.
func (e *Engine) Pending() int { return e.q.n }

// Seq returns the next scheduling sequence number. Together with Now, Fired
// and Pending it fingerprints the engine's position in a run: two engines
// driven by the same deterministic program agree on all four at every
// instant, which is what checkpoint verification checks.
func (e *Engine) Seq() uint64 { return e.seq }

// PendingCensus returns the number of queued events per profiling kind,
// plus the count of cancelled events awaiting lazy removal (a Timer counts
// as one event of its kind however often it was re-armed) — a structural
// fingerprint of the event queue that is invariant under its layout.
// Scheduling and cancellation are both deterministic, so two engines driven
// by the same program agree on the census at every instant.
func (e *Engine) PendingCensus() (byKind [NumKinds]int, cancelled int) {
	for i := range e.q.b {
		for _, ev := range e.q.b[i] {
			if ev.state == stateCanceled {
				cancelled++
				continue
			}
			byKind[ev.kind]++
		}
	}
	return byKind, cancelled
}

// FreeEvents returns the current size of the event free list (allocation
// instrumentation for tests and benchmarks).
func (e *Engine) FreeEvents() int { return len(e.free) }

// EnableChecks turns on per-event invariant checking: virtual time must
// never move backwards, events at the same instant must fire in scheduling
// (sequence) order, no cancelled or recycled event may fire, and no event may
// be queued before the radix queue's floor (see queue.go). Violations
// are recorded, not panicked, so a harness can report them after the run.
func (e *Engine) EnableChecks() {
	e.checks = true
	e.lastAt = -1
}

// Violations returns the invariant violations recorded since EnableChecks.
func (e *Engine) Violations() []string { return e.violations }

func (e *Engine) alloc() *Event {
	if k := len(e.free); k > 0 {
		ev := e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
		return ev
	}
	if len(e.chunk) == 0 {
		e.chunk = make([]Event, 256)
	}
	ev := &e.chunk[0]
	e.chunk = e.chunk[1:]
	return ev
}

// recycle returns a popped event to the free list. Events are recycled only
// after leaving the queue (fired, or cancelled and subsequently popped);
// releasing a still-queued event would let a reuse corrupt the queue.
func (e *Engine) recycle(ev *Event) {
	ev.fn, ev.fn2, ev.a1, ev.a2 = nil, nil, nil, nil
	ev.state = stateFree
	e.free = append(e.free, ev)
}

// Schedule runs fn after delay nanoseconds of virtual time. A negative delay
// is treated as zero. It returns a handle that can cancel the event.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	return e.ScheduleKind(delay, KindOther, fn)
}

// ScheduleKind is Schedule with a profiling kind tag.
func (e *Engine) ScheduleKind(delay Time, k Kind, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.AtKind(e.now+delay, k, fn)
}

// At runs fn at absolute virtual time t. If t is in the past, the event fires
// at the current time (but never before events already due).
func (e *Engine) At(t Time, fn func()) *Event {
	return e.AtKind(t, KindOther, fn)
}

// AtKind is At with a profiling kind tag.
func (e *Engine) AtKind(t Time, k Kind, fn func()) *Event {
	ev := e.alloc()
	ev.fn = fn
	ev.kind = k
	e.enqueue(ev, t)
	return ev
}

// ScheduleCall runs fn(a1, a2) after delay nanoseconds of virtual time. It
// is the allocation-free flavor of Schedule: fn is typically a package-level
// function and the receiver travels in a1/a2 (boxing a pointer into an `any`
// does not allocate), so a warm engine schedules without touching the heap.
func (e *Engine) ScheduleCall(delay Time, fn func(a1, a2 any), a1, a2 any) *Event {
	if delay < 0 {
		delay = 0
	}
	ev := e.alloc()
	ev.fn2, ev.a1, ev.a2 = fn, a1, a2
	ev.kind = KindOther
	e.enqueue(ev, e.now+delay)
	return ev
}

// ScheduleCallKind is ScheduleCall with a profiling kind tag. The body is a
// copy of ScheduleCall rather than a delegation so both stay inlinable on
// the packet hot path.
func (e *Engine) ScheduleCallKind(delay Time, k Kind, fn func(a1, a2 any), a1, a2 any) *Event {
	if delay < 0 {
		delay = 0
	}
	ev := e.alloc()
	ev.fn2, ev.a1, ev.a2 = fn, a1, a2
	ev.kind = k
	e.enqueue(ev, e.now+delay)
	return ev
}

func (e *Engine) enqueue(ev *Event, t Time) {
	if t < e.now {
		t = e.now
	}
	ev.at = t
	ev.seq = e.seq
	ev.state = stateQueued
	e.seq++
	if e.checks {
		e.checkPush(ev)
	}
	e.q.push(ev)
}

// ReserveSeq consumes and returns the next scheduling sequence number
// without queueing anything. A later AtCallSeq with the reserved number
// places an event exactly where an event scheduled now would sit among
// same-instant events, which is what lets Timer move a deadline without
// queueing a new event per move.
func (e *Engine) ReserveSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// AtCallSeq queues fn(a1, a2) at absolute time t under a sequence number
// previously obtained from ReserveSeq; it does not consume a new one. A t in
// the past fires at the current time. Each reserved number must be queued
// at most once at a time, or same-instant ordering is no longer total.
func (e *Engine) AtCallSeq(t Time, seq uint64, k Kind, fn func(a1, a2 any), a1, a2 any) *Event {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.fn2, ev.a1, ev.a2 = fn, a1, a2
	ev.kind = k
	ev.at = t
	ev.seq = seq
	ev.state = stateQueued
	if e.checks {
		e.checkPush(ev)
	}
	e.q.push(ev)
	return ev
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty, the
// engine is stopped, or the next event is later than until. Events exactly
// at until are executed. It returns the number of events fired by this call.
func (e *Engine) Run(until Time) uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped && e.q.settle(until) {
		e.fire(e.q.pop())
	}
	if e.now < until && !e.stopped {
		// Advance the clock to the horizon even if no event lands on it, so
		// repeated Run calls observe monotonic time.
		e.now = until
	}
	return e.fired - start
}

// RunAll executes events until the queue drains or the engine is stopped.
func (e *Engine) RunAll() uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped && e.q.settle(maxTime) {
		e.fire(e.q.pop())
	}
	return e.fired - start
}

// fire executes one popped event (skipping cancelled ones) and recycles it.
// It reports whether the event actually ran.
func (e *Engine) fire(ev *Event) bool {
	if ev.state == stateCanceled {
		if e.prof != nil {
			e.prof.cancelled[profKind(ev.kind)]++
		}
		e.recycle(ev)
		return false
	}
	if e.checks {
		e.checkFire(ev)
	}
	e.now = ev.at
	e.fired++
	ev.state = stateFired
	if e.prof != nil {
		e.profiledFire(ev)
		return true
	}
	if ev.fn2 != nil {
		ev.fn2(ev.a1, ev.a2)
	} else {
		ev.fn()
	}
	e.recycle(ev)
	return true
}

func (e *Engine) checkFire(ev *Event) {
	if ev.at < e.now {
		e.violate("time moved backwards: event at %d fires at now=%d", ev.at, e.now)
	}
	if ev.at == e.lastAt && ev.seq <= e.lastSeq {
		e.violate("same-instant ordering broken: seq %d fired after seq %d at t=%d",
			ev.seq, e.lastSeq, ev.at)
	}
	if ev.state != stateQueued {
		e.violate("event in state %d fired (cancelled or recycled event executing)", ev.state)
	}
	e.lastAt, e.lastSeq = ev.at, ev.seq
}

// checkPush flags an event queued under a sequence number not yet handed
// out (an AtCallSeq without ReserveSeq) or before the queue's floor, which
// the radix queue would file in the wrong bucket and fire out of order.
func (e *Engine) checkPush(ev *Event) {
	if ev.seq >= e.seq {
		e.violate("event queued with unreserved seq %d (next %d)", ev.seq, e.seq)
	}
	if ev.at < e.q.last {
		e.violate("event at %d queued below the queue floor %d (now=%d)", ev.at, e.q.last, e.now)
	}
}

func (e *Engine) violate(format string, args ...any) {
	e.violations = append(e.violations, fmt.Sprintf(format, args...))
}
