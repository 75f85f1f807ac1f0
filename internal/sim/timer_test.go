package sim

import (
	"math/rand"
	"testing"
)

// deadlineTimer is the interface both timer implementations under the
// differential test satisfy.
type deadlineTimer interface {
	Arm(at Time)
	Stop()
	Armed() bool
	Deadline() Time
}

// eagerTimer is the cancel-and-reschedule pattern sim.Timer replaces: every
// Arm cancels the queued event and schedules a new one.
type eagerTimer struct {
	eng *Engine
	ev  *Event
	at  Time
	fn  func(seq uint64)
}

func (t *eagerTimer) Arm(at Time) {
	if t.ev != nil {
		t.ev.Cancel()
	}
	if at < t.eng.now {
		at = t.eng.now
	}
	t.at = at
	t.ev = t.eng.ScheduleCallKind(at-t.eng.now, KindRTO, eagerFire, t, nil)
}

func eagerFire(a1, _ any) {
	t := a1.(*eagerTimer)
	seq := t.ev.seq
	t.ev = nil
	t.fn(seq)
}

func (t *eagerTimer) Stop() {
	if t.ev != nil {
		t.ev.Cancel()
		t.ev = nil
	}
}

func (t *eagerTimer) Armed() bool { return t.ev != nil }

func (t *eagerTimer) Deadline() Time {
	if t.ev == nil {
		return -1
	}
	return t.at
}

// traceEntry is one observable step of a timer program: a fired callback or
// a driver step, with the engine position it ran at.
type traceEntry struct {
	at    Time
	seq   uint64 // seq of the event that ran
	what  int    // -1 driver step, otherwise the index of the fired timer
	next  uint64 // Engine.Seq() when the step ran
	armed int    // timers armed after the step
}

// runTimerProgram drives a randomized arm/re-arm/disarm program over n
// timers (sim.Timer when lazy, cancel-and-reschedule otherwise) and returns
// its trace and the engine it ran on.
func runTimerProgram(t *testing.T, seed int64, n, steps int, lazy bool) ([]traceEntry, *Engine) {
	t.Helper()
	eng := NewEngine()
	eng.EnableChecks()
	r := rand.New(rand.NewSource(seed))
	var trace []traceEntry
	timers := make([]deadlineTimer, n)
	armedCount := func() int {
		c := 0
		for _, tm := range timers {
			if tm.Armed() {
				c++
			}
		}
		return c
	}
	for i := range timers {
		i := i
		onFire := func(seq uint64) {
			trace = append(trace, traceEntry{eng.Now(), seq, i, eng.Seq(), armedCount()})
			// Like an RTO handler: sometimes re-arm from inside the callback.
			if r.Intn(3) == 0 {
				timers[i].Arm(eng.Now() + Time(r.Intn(40)))
			}
		}
		if lazy {
			tm := &Timer{}
			tm.Init(eng, KindRTO, func(a1, _ any) { onFire(a1.(*Timer).seq) }, tm, nil)
			timers[i] = tm
		} else {
			timers[i] = &eagerTimer{eng: eng, fn: onFire}
		}
	}
	var driver *Event
	left := steps
	var step func(_, _ any)
	step = func(_, _ any) {
		k := r.Intn(n)
		switch op := r.Intn(10); {
		case op < 5: // push the deadline back, the RTO re-arm pattern
			timers[k].Arm(eng.Now() + Time(20+r.Intn(40)))
		case op < 8: // anywhere, including the past and the current instant
			timers[k].Arm(eng.Now() + Time(r.Intn(30)-5))
		default:
			timers[k].Stop()
		}
		trace = append(trace, traceEntry{eng.Now(), driver.seq, -1, eng.Seq(), armedCount()})
		if left--; left > 0 {
			driver = eng.ScheduleCall(Time(r.Intn(6)), step, nil, nil)
		}
	}
	driver = eng.ScheduleCall(0, step, nil, nil)
	eng.RunAll()
	return trace, eng
}

// TestTimerMatchesCancelAndReschedule is the differential test of the lazy
// timer: the same randomized program driven through sim.Timer and through
// cancel-and-reschedule must fire the same callbacks at the same (time, seq)
// positions with the same Engine.Seq() at every step, with the engine's
// invariant checks clean. Only the fired count may differ: it includes the
// early wakeups, which the program must exercise.
func TestTimerMatchesCancelAndReschedule(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want, eager := runTimerProgram(t, seed, 6, 2000, false)
		got, lazy := runTimerProgram(t, seed, 6, 2000, true)
		for _, e := range []*Engine{eager, lazy} {
			if v := e.Violations(); len(v) > 0 {
				t.Fatalf("seed %d: engine violations: %v", seed, v[:min(len(v), 3)])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace length %d, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: step %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
		if lazy.Seq() != eager.Seq() {
			t.Fatalf("seed %d: final Seq %d, want %d", seed, lazy.Seq(), eager.Seq())
		}
		if lazy.Now() != eager.Now() {
			t.Fatalf("seed %d: final Now %d, want %d", seed, lazy.Now(), eager.Now())
		}
		if lazy.Fired() <= eager.Fired() {
			t.Fatalf("seed %d: no early wakeups (fired %d vs %d): the re-queue path is not exercised",
				seed, lazy.Fired(), eager.Fired())
		}
	}
}

// TestTimerDeadlineAndHeap pins the Timer accessors and its one-event heap
// footprint: many re-arms leave one queued wakeup, not one event each.
func TestTimerDeadlineAndHeap(t *testing.T) {
	eng := NewEngine()
	fired := 0
	var tm Timer
	tm.Init(eng, KindRTO, func(_, _ any) { fired++ }, nil, nil)
	if tm.Armed() || tm.Deadline() != -1 {
		t.Fatalf("fresh timer armed=%v deadline=%d", tm.Armed(), tm.Deadline())
	}
	for i := 0; i < 1000; i++ {
		tm.Arm(100 + Time(i))
	}
	if eng.Pending() != 1 || tm.Deadline() != 1099 {
		t.Fatalf("after 1000 later re-arms: pending=%d deadline=%d, want 1 and 1099", eng.Pending(), tm.Deadline())
	}
	if eng.Seq() != 1000 {
		t.Fatalf("Seq = %d, want 1000 (one reservation per Arm)", eng.Seq())
	}
	eng.RunAll()
	if fired != 1 || tm.Armed() || eng.Now() != 1099 {
		t.Fatalf("fired=%d armed=%v now=%d, want 1 false 1099", fired, tm.Armed(), eng.Now())
	}
	// Moving the deadline earlier replaces the wakeup; Stop cancels it.
	tm.Arm(2000)
	tm.Arm(1500)
	if _, cancelled := eng.PendingCensus(); cancelled != 1 || tm.Deadline() != 1500 {
		t.Fatalf("earlier re-arm: cancelled=%d deadline=%d, want 1 and 1500", cancelled, tm.Deadline())
	}
	tm.Stop()
	eng.RunAll()
	if fired != 1 || tm.Deadline() != -1 {
		t.Fatalf("stopped timer fired: fired=%d deadline=%d", fired, tm.Deadline())
	}
}
