package sim

// Timer is a re-armable one-shot deadline with lazy rescheduling, built for
// timers that move far more often than they fire, like a TCP retransmission
// timeout that is pushed back on every window-advancing ACK.
//
// A Timer keeps at most one wakeup event queued. Arm records the new
// deadline and reserves a scheduling sequence number for it, exactly the one
// a freshly scheduled event would have taken. The queued wakeup is replaced
// only when it sits at or after the new deadline. A wakeup that fires before
// the deadline re-queues itself at (deadline, reserved seq) without taking a
// new sequence number. The callback therefore runs at the same (time, seq)
// position, and Engine.Seq moves exactly as it would under cancel-and-
// reschedule, while the heap holds one event per timer instead of one per
// re-arm. The price is an occasional early wakeup, which counts as a fired
// event of the timer's kind.
//
// The zero value is unusable; call Init once before the first Arm. A Timer
// must not be copied after Init.
type Timer struct {
	eng    *Engine
	fn     func(a1, a2 any)
	a1, a2 any
	kind   Kind

	at  Time   // deadline, meaningful while armed
	seq uint64 // sequence number reserved when the deadline was set

	// wake is the queued wakeup. The timer is armed exactly while it is
	// non-nil: Arm always leaves one queued, firing and Stop clear it.
	wake *Event
}

// Init binds the timer to an engine and to the callback fn(a1, a2) that runs
// when a deadline is reached, tagging its wakeups with profiling kind k.
func (t *Timer) Init(eng *Engine, k Kind, fn func(a1, a2 any), a1, a2 any) {
	t.eng, t.kind, t.fn, t.a1, t.a2 = eng, k, fn, a1, a2
}

// Arm sets the deadline to absolute time at (the current time if at is in
// the past), replacing any earlier deadline. It consumes one scheduling
// sequence number, like At.
func (t *Timer) Arm(at Time) {
	e := t.eng
	if at < e.now {
		at = e.now
	}
	t.at, t.seq = at, e.ReserveSeq()
	if t.wake != nil {
		if t.wake.at < at {
			return // the early wakeup re-queues itself at the deadline
		}
		t.wake.Cancel()
	}
	t.wake = e.AtCallSeq(at, t.seq, t.kind, timerWake, t, nil)
}

// Stop disarms the timer and cancels its queued wakeup, if any.
func (t *Timer) Stop() {
	if t.wake != nil {
		t.wake.Cancel()
		t.wake = nil
	}
}

// Armed reports whether a deadline is pending.
func (t *Timer) Armed() bool { return t.wake != nil }

// Deadline returns the pending deadline, or -1 when the timer is disarmed.
func (t *Timer) Deadline() Time {
	if t.wake == nil {
		return -1
	}
	return t.at
}

// timerWake is the package-level trampoline every Timer wakeup runs, so
// arming captures no closure.
func timerWake(a1, _ any) {
	t := a1.(*Timer)
	if t.wake.seq != t.seq {
		t.wake = t.eng.AtCallSeq(t.at, t.seq, t.kind, timerWake, t, nil)
		return
	}
	t.wake = nil
	t.fn(t.a1, t.a2)
}
