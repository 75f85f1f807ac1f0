package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// opsEngine is the scheduling surface the differential program drives. The
// engine under test and refEngine both implement it.
type opsEngine interface {
	now() Time
	state() engineState
	at(t Time, fn func()) *Event
	schedule(delay Time, fn func()) *Event
	call(delay Time, fn func(a1, a2 any), a1 any) *Event
	reserveSeq() uint64
	atCallSeq(t Time, seq uint64, fn func(a1, a2 any), a1 any) *Event
	newTimer(fn func(seq uint64)) (arm func(Time), stop func())
	run(until Time)
	runAll()
	stop()
}

// engineState is the engine position both engines must agree on after
// every operation.
type engineState struct {
	Now     Time
	Seq     uint64
	Pending int
	Fired   uint64
}

type realOps struct{ e *Engine }

func (o realOps) now() Time { return o.e.Now() }
func (o realOps) state() engineState {
	return engineState{o.e.Now(), o.e.Seq(), o.e.Pending(), o.e.Fired()}
}
func (o realOps) at(t Time, fn func()) *Event           { return o.e.At(t, fn) }
func (o realOps) schedule(delay Time, fn func()) *Event { return o.e.Schedule(delay, fn) }
func (o realOps) call(delay Time, fn func(a1, a2 any), a1 any) *Event {
	return o.e.ScheduleCall(delay, fn, a1, nil)
}
func (o realOps) reserveSeq() uint64 { return o.e.ReserveSeq() }
func (o realOps) atCallSeq(t Time, seq uint64, fn func(a1, a2 any), a1 any) *Event {
	return o.e.AtCallSeq(t, seq, KindOther, fn, a1, nil)
}
func (o realOps) newTimer(fn func(seq uint64)) (func(Time), func()) {
	tm := &Timer{}
	tm.Init(o.e, KindTimer, func(a1, _ any) { fn(a1.(*Timer).seq) }, tm, nil)
	return tm.Arm, tm.Stop
}
func (o realOps) run(until Time) { o.e.Run(until) }
func (o realOps) runAll()        { o.e.RunAll() }
func (o realOps) stop()          { o.e.Stop() }

type refOps struct{ r *refEngine }

func (o refOps) now() Time { return o.r.now }
func (o refOps) state() engineState {
	return engineState{o.r.now, o.r.seq, len(o.r.events), o.r.fired}
}
func (o refOps) at(t Time, fn func()) *Event { return o.r.at(t, fn) }
func (o refOps) schedule(delay Time, fn func()) *Event {
	return o.r.at(o.r.now+max(delay, 0), fn)
}
func (o refOps) call(delay Time, fn func(a1, a2 any), a1 any) *Event {
	return o.r.call(o.r.now+max(delay, 0), fn, a1, nil)
}
func (o refOps) reserveSeq() uint64 { return o.r.reserveSeq() }
func (o refOps) atCallSeq(t Time, seq uint64, fn func(a1, a2 any), a1 any) *Event {
	return o.r.atCallSeq(t, seq, fn, a1, nil)
}
func (o refOps) newTimer(fn func(seq uint64)) (func(Time), func()) {
	tm := &refTimer{eng: o.r, fn: fn}
	return tm.arm, tm.stop
}
func (o refOps) run(until Time) { o.r.run(until) }
func (o refOps) runAll()        { o.r.runAll() }
func (o refOps) stop()          { o.r.stopped = true }

// fireRec is one callback run: where it ran and which scheduling op (or,
// when id < 0, which timer) queued it.
type fireRec struct {
	At  Time
	Seq uint64
	ID  int
}

// opDelay spreads a 5-bit argument over delays from 0 to 3<<28 ns, so the
// program exercises every radix level and, through the frequent zeros, the
// same-instant heap.
func opDelay(a int) Time { return Time(a&3) << (4 * (a >> 2)) }

// runDiffProgram interprets data as a stream of engine operations, one per
// byte (low three bits select the op, the high five are its argument), and
// returns the callbacks' fire log and the engine state after every op.
// after, when set, runs after every op (structural checks of the queue).
func runDiffProgram(data []byte, eng opsEngine, after func()) ([]fireRec, []engineState) {
	type tracked struct {
		ev  *Event
		id  int
		at  Time
		seq uint64
	}
	var (
		log      []fireRec
		states   []engineState
		live     []*tracked // queued, not cancelled, not fired
		reserved []uint64
		nextID   int
		// spawns caps the work callbacks queue, which could otherwise
		// chain forever (say, three timers re-arming in turn).
		spawns = 2*len(data) + 8
	)
	remove := func(tr *tracked) {
		for i, o := range live {
			if o == tr {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	var fired func(tr *tracked)
	onCall := func(a1, _ any) { fired(a1.(*tracked)) }
	track := func(ev *Event, tr *tracked) {
		tr.ev, tr.at, tr.seq = ev, ev.at, ev.seq
		live = append(live, tr)
	}
	// schedule queues a new tracked event at absolute time t: flavor 0 via
	// Schedule, 1 via At, 2 via ScheduleCall.
	schedule := func(flavor int, t Time) {
		tr := &tracked{id: nextID}
		nextID++
		fn := func() { fired(tr) }
		switch flavor {
		case 0:
			track(eng.schedule(t-eng.now(), fn), tr)
		case 1:
			track(eng.at(t, fn), tr)
		default:
			track(eng.call(t-eng.now(), onCall, tr), tr)
		}
	}
	fired = func(tr *tracked) {
		log = append(log, fireRec{eng.now(), tr.seq, tr.id})
		remove(tr)
		if tr.id%7 == 3 { // end the current Run or RunAll early
			eng.stop()
		}
		// Work scheduled from inside a callback, often at the same instant.
		if tr.id%4 == 0 && spawns > 0 {
			spawns--
			schedule(tr.id%3, eng.now()+Time(tr.id%3))
		}
	}
	var arms [4]func(Time)
	var stops [4]func()
	for k := range arms {
		arms[k], stops[k] = eng.newTimer(func(seq uint64) {
			log = append(log, fireRec{eng.now(), seq, -1 - k})
			if seq%3 == 0 && spawns > 0 { // re-arm from the callback, like an RTO
				spawns--
				arms[k](eng.now() + Time(seq%5))
			}
		})
	}
	for _, b := range data {
		a := int(b >> 3)
		now := eng.now()
		switch b & 7 {
		case 0: // Schedule
			schedule(0, now+opDelay(a))
		case 1: // At, one ns in the past when the delay is zero
			schedule(1, now+opDelay(a)-1)
		case 2: // ScheduleCall
			schedule(2, now+opDelay(a))
		case 3: // cancel a live event
			if len(live) > 0 {
				tr := live[a%len(live)]
				tr.ev.Cancel()
				remove(tr)
			}
		case 4: // cancel, then reschedule at the same instant
			if len(live) > 0 {
				tr := live[a%len(live)]
				tr.ev.Cancel()
				remove(tr)
				schedule(1, tr.at)
			}
		case 5: // reserve a seq, or queue an older reserved seq
			if a&1 == 0 || len(reserved) == 0 {
				reserved = append(reserved, eng.reserveSeq())
				break
			}
			i := (a >> 1) % len(reserved)
			seq := reserved[i]
			reserved = append(reserved[:i], reserved[i+1:]...)
			tr := &tracked{id: nextID}
			nextID++
			track(eng.atCallSeq(now+opDelay(a>>1), seq, onCall, tr), tr)
		case 6: // arm or stop a timer
			k, rest := a&3, a>>2
			if rest == 7 {
				stops[k]()
			} else {
				arms[k](now + Time(rest)<<(3*rest))
			}
		case 7: // advance the clock partially
			eng.run(now + opDelay(a))
		}
		if after != nil {
			after()
		}
		states = append(states, eng.state())
	}
	for eng.state().Pending > 0 { // RunAll until drained, past any Stop
		eng.runAll()
	}
	if after != nil {
		after()
	}
	states = append(states, eng.state())
	return log, states
}

// verifyQueue checks the radix queue's structure: every event sits in the
// bucket its time selects relative to the floor, the occupancy mask, the
// bucket minima and the count match the buckets, and bucket 0 is a heap by
// seq.
func verifyQueue(q *queue) error {
	n := 0
	for i := range q.b {
		n += len(q.b[i])
		if i > 0 && (len(q.b[i]) > 0) != (q.mask&(1<<i) != 0) {
			return fmt.Errorf("bucket %d: len %d but mask bit %v", i, len(q.b[i]), q.mask&(1<<i) != 0)
		}
		lo := maxTime
		for _, ev := range q.b[i] {
			lo = min(lo, ev.at)
		}
		if i > 0 && lo != q.lo[i] {
			return fmt.Errorf("bucket %d: minimum %d, recorded %d", i, lo, q.lo[i])
		}
		for j, ev := range q.b[i] {
			if ev.at < q.last {
				return fmt.Errorf("bucket %d: event at %d below floor %d", i, ev.at, q.last)
			}
			if got := bits.Len64(uint64(ev.at ^ q.last)); got != i {
				return fmt.Errorf("event at %d in bucket %d, belongs in %d (floor %d)", ev.at, i, got, q.last)
			}
			if i == 0 && j > 0 && q.b[0][(j-1)/2].seq > ev.seq {
				return fmt.Errorf("bucket 0 heap order broken at %d", j)
			}
		}
	}
	if q.mask&1 != 0 || n != q.n {
		return fmt.Errorf("mask %#x, count %d, buckets hold %d", q.mask, q.n, n)
	}
	return nil
}

// checkDifferential runs data through the radix engine and the reference
// 4-ary heap and requires identical fire logs and engine states, with the
// queue's structure verified after every op.
func checkDifferential(t *testing.T, data []byte) {
	t.Helper()
	e := NewEngine()
	var structErr error
	gotLog, gotStates := runDiffProgram(data, realOps{e}, func() {
		if structErr == nil {
			structErr = verifyQueue(&e.q)
		}
	})
	if structErr != nil {
		t.Fatalf("radix queue structure: %v", structErr)
	}
	wantLog, wantStates := runDiffProgram(data, refOps{&refEngine{}}, nil)
	if !reflect.DeepEqual(gotLog, wantLog) {
		for i := range min(len(gotLog), len(wantLog)) {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("fire %d: radix %+v, reference %+v (logs %d vs %d long)",
					i, gotLog[i], wantLog[i], len(gotLog), len(wantLog))
			}
		}
		t.Fatalf("fire logs differ in length: radix %d, reference %d", len(gotLog), len(wantLog))
	}
	if !reflect.DeepEqual(gotStates, wantStates) {
		for i := range gotStates {
			if gotStates[i] != wantStates[i] {
				t.Fatalf("after op %d: radix %+v, reference %+v", i, gotStates[i], wantStates[i])
			}
		}
	}
}

// FuzzQueueDifferential drives the radix queue and the former 4-ary heap
// through the same arbitrary operation stream and requires the same
// (time, seq) fire sequence and the same Now/Seq/Pending/Fired after every
// op.
func FuzzQueueDifferential(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x7a, 0x12, 0x07, 0xc3, 0x0d, 0x05, 0x1d, 0xff})
	f.Add([]byte{0x05, 0x05, 0x00, 0x00, 0x0d, 0x0d, 0x07, 0x07})       // older seqs at one instant
	f.Add([]byte{0x06, 0x0e, 0x16, 0x1e, 0x46, 0x4e, 0x3f, 0x26, 0xfe}) // timer churn
	f.Add([]byte{0xf8, 0x07, 0x00, 0xff, 0x20, 0x3c, 0x07, 0x04, 0x03}) // far events, cancels
	f.Fuzz(checkDifferential)
}

// TestQueueDifferentialRandom runs the differential program over seeded
// random operation streams, so plain `go test` covers more than the fuzz
// seed corpus.
func TestQueueDifferentialRandom(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		data := make([]byte, 50+r.Intn(400))
		r.Read(data)
		checkDifferential(t, data)
	}
}

// TestRunHorizonBelowHead is the regression for the peek hazard: Run(until)
// with the earliest event beyond until must not raise the queue floor, or
// an event scheduled between until and that head lands in the wrong bucket
// and fires late.
func TestRunHorizonBelowHead(t *testing.T) {
	e := NewEngine()
	e.EnableChecks()
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	e.At(100, rec)
	e.At(200, rec)
	e.Run(50)
	if e.q.last > 50 {
		t.Fatalf("Run(50) raised the queue floor to %d", e.q.last)
	}
	e.At(70, rec)
	e.At(96, rec)
	e.RunAll()
	if want := []Time{70, 96, 100, 200}; !reflect.DeepEqual(order, want) {
		t.Fatalf("fire order %v, want %v", order, want)
	}
	if v := e.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestCancelledPopsThenDrain covers a RunAll whose last pops are cancelled
// events: the clock stays put while the floor had moved up to them, and a
// later schedule below that floor must still fire in order.
func TestCancelledPopsThenDrain(t *testing.T) {
	e := NewEngine()
	e.EnableChecks()
	e.At(500, func() {}).Cancel()
	e.RunAll()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("now %d pending %d after draining a cancelled event", e.Now(), e.Pending())
	}
	var order []Time
	e.At(10, func() { order = append(order, e.Now()) })
	e.At(7, func() { order = append(order, e.Now()) })
	e.RunAll()
	if want := []Time{7, 10}; !reflect.DeepEqual(order, want) {
		t.Fatalf("fire order %v, want %v", order, want)
	}
	if v := e.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestChecksDetectPushBelowFloor corrupts the queue floor (white-box) and
// confirms the checker flags the next push below it.
func TestChecksDetectPushBelowFloor(t *testing.T) {
	e := NewEngine()
	e.EnableChecks()
	e.At(40, func() {})
	e.q.last = 30 // corrupt: the floor moved above Now
	e.At(20, func() {})
	if v := e.Violations(); len(v) != 1 {
		t.Fatalf("violations = %v, want one floor violation", v)
	}
}

// TestChecksDetectUnreservedSeq confirms the checker flags AtCallSeq under
// a sequence number ReserveSeq never handed out.
func TestChecksDetectUnreservedSeq(t *testing.T) {
	e := NewEngine()
	e.EnableChecks()
	e.AtCallSeq(5, e.ReserveSeq(), KindOther, func(_, _ any) {}, nil, nil)
	if v := e.Violations(); len(v) != 0 {
		t.Fatalf("reserved seq flagged: %v", v)
	}
	e.AtCallSeq(5, e.Seq(), KindOther, func(_, _ any) {}, nil, nil)
	if v := e.Violations(); len(v) != 1 {
		t.Fatalf("violations = %v, want one unreserved-seq violation", v)
	}
}
