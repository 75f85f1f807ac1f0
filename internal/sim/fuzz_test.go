package sim

import "testing"

// FuzzEventOps drives the engine through an arbitrary stream of
// schedule / cancel / cancel-then-reschedule / partial-run operations, plus
// reserved-seq queueing (ReserveSeq + AtCallSeq) and Timer arm/stop, and
// asserts that the invariant checker stays clean, that exactly the
// non-cancelled events fire, and that every timer fires once per deadline
// it still held, at that deadline. Each input byte is one operation: the
// low three bits select the op, the high five bits are its argument.
func FuzzEventOps(f *testing.F) {
	f.Add([]byte{0x00, 0x28, 0x81, 0x02, 0x83, 0xc4, 0x10, 0xff})
	f.Add([]byte{0x01, 0x01, 0x01})                         // cancels with nothing live
	f.Add([]byte{0x00, 0x00, 0x02, 0x02, 0x0a, 0x03})       // same-instant churn
	f.Add([]byte{0xfb, 0x00, 0x08, 0x10, 0x0b, 0x13, 0x1b}) // run interleaved with ops
	f.Add([]byte{0x04, 0x04, 0x0d, 0x00, 0x05, 0x1b, 0x03}) // older reserved seqs
	f.Add([]byte{0x06, 0x2e, 0x0b, 0x16, 0x07, 0x46, 0xfb}) // timer arm, re-arm, stop
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine()
		e.EnableChecks()
		type tracked struct {
			ev *Event
			at Time
		}
		// live holds events that are queued and not cancelled; fire callbacks
		// remove their own entry, mirroring the handle-clearing discipline
		// real timer holders (transport RTO, reorder timer) follow.
		var live []*tracked
		var reserved []uint64
		fired, expect := 0, 0
		remove := func(tr *tracked) {
			for i, o := range live {
				if o == tr {
					live = append(live[:i], live[i+1:]...)
					return
				}
			}
		}
		fire := func(a1, _ any) {
			fired++
			remove(a1.(*tracked))
		}
		track := func(at Time, abs bool) {
			tr := &tracked{}
			fn := func() { fire(tr, nil) }
			if abs {
				tr.ev = e.At(at, fn)
			} else {
				tr.ev = e.Schedule(at, fn)
			}
			tr.at = tr.ev.At()
			live = append(live, tr)
		}
		// The timer model: a timer must fire exactly at the deadline of its
		// last Arm, once, unless stopped first.
		var timers [2]Timer
		var deadline [2]Time // -1 while disarmed
		for k := range timers {
			deadline[k] = -1
			timers[k].Init(e, KindTimer, func(_, _ any) {
				if deadline[k] != e.Now() {
					t.Fatalf("timer %d fired at %d, deadline %d", k, e.Now(), deadline[k])
				}
				deadline[k] = -1
			}, nil, nil)
		}
		for _, b := range data {
			arg := int(b >> 3)
			switch b & 7 {
			case 0: // schedule at now+arg
				track(Time(arg), false)
				expect++
			case 1: // cancel a live event
				if len(live) == 0 {
					continue
				}
				tr := live[arg%len(live)]
				tr.ev.Cancel()
				remove(tr)
				expect--
			case 2: // cancel then reschedule at the exact same timestamp
				if len(live) == 0 {
					continue
				}
				tr := live[arg%len(live)]
				at := tr.at
				tr.ev.Cancel()
				remove(tr)
				track(at, true)
			case 3: // advance the clock partially, firing due events
				e.Run(e.Now() + Time(arg))
			case 4: // reserve a sequence number for later
				reserved = append(reserved, e.ReserveSeq())
			case 5: // queue under an older reserved seq, strictly in the
				// future so no same-instant event with a newer seq has fired
				if len(reserved) == 0 {
					continue
				}
				i := arg % len(reserved)
				seq := reserved[i]
				reserved = append(reserved[:i], reserved[i+1:]...)
				tr := &tracked{}
				tr.ev = e.AtCallSeq(e.Now()+1+Time(arg), seq, KindOther, fire, tr, nil)
				tr.at = tr.ev.At()
				live = append(live, tr)
				expect++
			case 6: // arm a timer at now+arg (re-arming moves the deadline)
				k := arg & 1
				timers[k].Arm(e.Now() + Time(arg>>1))
				deadline[k] = e.Now() + Time(arg>>1)
			case 7: // stop a timer
				k := arg & 1
				timers[k].Stop()
				deadline[k] = -1
			}
		}
		e.RunAll()
		if vs := e.Violations(); len(vs) > 0 {
			t.Fatalf("invariant violations: %v", vs)
		}
		if fired != expect {
			t.Fatalf("fired %d events, want %d", fired, expect)
		}
		if len(live) != 0 {
			t.Fatalf("%d tracked events never fired", len(live))
		}
		for k := range timers {
			if deadline[k] != -1 || timers[k].Armed() {
				t.Fatalf("timer %d still armed for %d after RunAll", k, deadline[k])
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("%d events pending after RunAll", e.Pending())
		}
	})
}
