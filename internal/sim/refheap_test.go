package sim

// refEngine is the engine's former pending-event queue, an inlined 4-ary
// min-heap ordered by (at, seq), wrapped in the engine's scheduling rules
// (clamping to Now, sequence numbering, Run's horizon and Stop, lazy removal
// of cancelled events). It is the differential oracle for the radix queue:
// driven by the same program, both must fire the same events at the same
// (time, seq) positions and agree on Now, Seq, Pending and Fired throughout.
// Events are never recycled here, so a stale handle is always harmless.
type refEngine struct {
	now     Time
	seq     uint64
	fired   uint64
	events  []*Event
	stopped bool
}

func (r *refEngine) enqueue(ev *Event, t Time, seq uint64) *Event {
	if t < r.now {
		t = r.now
	}
	ev.at, ev.seq, ev.state = t, seq, stateQueued
	r.push(ev)
	return ev
}

func (r *refEngine) at(t Time, fn func()) *Event {
	r.seq++
	return r.enqueue(&Event{fn: fn}, t, r.seq-1)
}

func (r *refEngine) call(t Time, fn func(a1, a2 any), a1, a2 any) *Event {
	r.seq++
	return r.enqueue(&Event{fn2: fn, a1: a1, a2: a2}, t, r.seq-1)
}

func (r *refEngine) reserveSeq() uint64 {
	r.seq++
	return r.seq - 1
}

func (r *refEngine) atCallSeq(t Time, seq uint64, fn func(a1, a2 any), a1, a2 any) *Event {
	return r.enqueue(&Event{fn2: fn, a1: a1, a2: a2}, t, seq)
}

func (r *refEngine) run(until Time) {
	r.stopped = false
	for len(r.events) > 0 && !r.stopped && r.events[0].at <= until {
		r.fire(r.pop())
	}
	if r.now < until && !r.stopped {
		r.now = until
	}
}

func (r *refEngine) runAll() {
	r.stopped = false
	for len(r.events) > 0 && !r.stopped {
		r.fire(r.pop())
	}
}

func (r *refEngine) fire(ev *Event) {
	if ev.state == stateCanceled {
		return
	}
	r.now = ev.at
	r.fired++
	ev.state = stateFired
	if ev.fn2 != nil {
		ev.fn2(ev.a1, ev.a2)
	} else {
		ev.fn()
	}
}

// eventLess orders the heap by (timestamp, scheduling sequence).
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push and pop maintain an implicit 4-ary min-heap in r.events.
func (r *refEngine) push(ev *Event) {
	h := append(r.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	r.events = h
}

func (r *refEngine) pop() *Event {
	h := r.events
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	r.events = h
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return root
}

// refTimer is Timer's lazy-deadline algorithm on the reference engine, so
// both engines queue, re-queue and fire the same wakeups.
type refTimer struct {
	eng  *refEngine
	fn   func(seq uint64)
	at   Time
	seq  uint64
	wake *Event
}

func (t *refTimer) arm(at Time) {
	e := t.eng
	if at < e.now {
		at = e.now
	}
	t.at, t.seq = at, e.reserveSeq()
	if t.wake != nil {
		if t.wake.at < at {
			return
		}
		t.wake.Cancel()
	}
	t.wake = e.atCallSeq(at, t.seq, refTimerWake, t, nil)
}

func (t *refTimer) stop() {
	if t.wake != nil {
		t.wake.Cancel()
		t.wake = nil
	}
}

func refTimerWake(a1, _ any) {
	t := a1.(*refTimer)
	if t.wake.seq != t.seq {
		t.wake = t.eng.atCallSeq(t.at, t.seq, refTimerWake, t, nil)
		return
	}
	t.wake = nil
	t.fn(t.seq)
}
