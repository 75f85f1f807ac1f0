package sim

import "testing"

func TestProfileCountsByKind(t *testing.T) {
	e := NewEngine()
	p := e.EnableProfile(2)
	if p != e.EnableProfile(99) {
		t.Fatal("EnableProfile twice returned different profiles")
	}
	for i := 0; i < 10; i++ {
		e.ScheduleKind(Time(i), KindPortTx, func() {})
	}
	for i := 0; i < 5; i++ {
		e.ScheduleCallKind(Time(i), KindRTO, func(a1, a2 any) {}, nil, nil)
	}
	e.Schedule(3, func() {}) // untagged -> KindOther
	ev := e.ScheduleKind(4, KindChaos, func() {})
	ev.Cancel() // cancelled events must not be counted
	e.RunAll()

	if got := p.Count(KindPortTx); got != 10 {
		t.Fatalf("Count(KindPortTx) = %d, want 10", got)
	}
	if got := p.Count(KindRTO); got != 5 {
		t.Fatalf("Count(KindRTO) = %d, want 5", got)
	}
	if got := p.Count(KindOther); got != 1 {
		t.Fatalf("Count(KindOther) = %d, want 1", got)
	}
	if got := p.Count(KindChaos); got != 0 {
		t.Fatalf("cancelled event counted: Count(KindChaos) = %d", got)
	}
	if got := p.Cancelled(KindChaos); got != 1 {
		t.Fatalf("Cancelled(KindChaos) = %d, want 1", got)
	}
	if got := p.CancelledTotal(); got != 1 {
		t.Fatalf("CancelledTotal() = %d, want 1", got)
	}
	if got := p.Total(); got != 16 {
		t.Fatalf("Total() = %d, want 16", got)
	}
	if got, want := p.Total(), e.Fired(); got != want {
		t.Fatalf("profile total %d != engine fired %d", got, want)
	}
	// Stride 2 over 16 fires: exactly 8 sampled, each with a wall timestamp.
	var sampled uint64
	for k := 0; k < NumKinds; k++ {
		sampled += p.SampledFires(Kind(k))
	}
	if sampled != 8 {
		t.Fatalf("sampled fires = %d, want 16/2 = 8", sampled)
	}
	if p.QueuePeak() < 1 || p.QueuePeak() > 17 {
		t.Fatalf("QueuePeak() = %d out of plausible range", p.QueuePeak())
	}
}

func TestProfileDoesNotChangeExecution(t *testing.T) {
	run := func(profile bool) []Time {
		e := NewEngine()
		if profile {
			e.EnableProfile(3)
		}
		var fired []Time
		for i := 0; i < 200; i++ {
			d := Time((i * 37) % 101)
			e.ScheduleKind(d, Kind(i%NumKinds), func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		return fired
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("profiled run fired %d events, unprofiled %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fire order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestKindNamesStable(t *testing.T) {
	want := map[Kind]string{
		KindOther: "other", KindPortTx: "port_tx", KindPropagate: "propagate",
		KindRTO: "rto", KindTimer: "timer", KindProbe: "probe",
		KindArrival: "arrival", KindSample: "sample", KindChaos: "chaos",
	}
	for k, n := range want {
		if k.String() != n {
			t.Fatalf("Kind(%d).String() = %q, want %q (ledger/metric names must stay stable)", k, k.String(), n)
		}
	}
	if Kind(200).String() != "other" {
		t.Fatal("out-of-range kind must degrade to other")
	}
}
