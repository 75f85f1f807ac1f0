package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	h := reg.Histogram("z", []float64{1, 2})
	reg.GaugeFunc("f", func() float64 { return 1 })
	c.Inc()
	c.Add(5)
	h.Observe(1.5)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must be inert")
	}
	if reg.Values() != nil || reg.Histograms() != nil {
		t.Fatal("nil registry must export nothing")
	}

	var log *AuditLog
	log.Add(AuditEntry{Kind: AuditPlace})
	if log.Len() != 0 || log.Dropped() != 0 {
		t.Fatal("nil audit log must be inert")
	}
	var rd *RunData
	rep := &Report{}
	rd.Fill(rep)
	if rep.Counters != nil || rep.Series != nil {
		t.Fatal("nil run data must fill nothing")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("hermes.reroutes")
	b := reg.Counter("hermes.reroutes")
	if a != b {
		t.Fatal("same key must return the same counter")
	}
	a.Inc()
	b.Inc()
	if got := reg.Values()["hermes.reroutes"]; got != 2 {
		t.Fatalf("shared counter = %v, want 2", got)
	}
	// Label order must not matter.
	x := reg.Counter("net.port.drops", "port", "p0", "dir", "up")
	y := reg.Counter("net.port.drops", "dir", "up", "port", "p0")
	if x != y {
		t.Fatal("label order must not change identity")
	}
	if k := Key("m", "b", "2", "a", "1"); k != "m{a=1,b=2}" {
		t.Fatalf("Key = %q", k)
	}
}

func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("cwnd", []float64{10, 100})
	for _, v := range []float64{5, 50, 500, 7} {
		h.Observe(v)
	}
	s := h.Stats()
	if s.Count != 4 || s.Min != 5 || s.Max != 500 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Buckets[0].Count != 2 || s.Buckets[1].Count != 1 || s.Inf != 1 {
		t.Fatalf("buckets = %+v inf=%d", s.Buckets, s.Inf)
	}
	if got := h.Mean(); got != (5+50+500+7)/4.0 {
		t.Fatalf("mean = %v", got)
	}
}

func TestRunDataSeries(t *testing.T) {
	eng := sim.NewEngine()
	rd := NewRunData(eng, sim.Millisecond, 0)
	c := rd.Registry.Counter("events")
	rd.Series.Start()
	eng.Schedule(500*sim.Microsecond, func() { c.Add(3) })
	eng.Schedule(1500*sim.Microsecond, func() { c.Add(4) })
	eng.Run(3500 * sim.Microsecond)
	rd.Series.Stop()
	if n := len(rd.Series.Times()); n != 3 {
		t.Fatalf("sweeps = %d, want 3", n)
	}
	got := rd.Series.Series("events")
	want := []float64{3, 7, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series = %v, want %v", got, want)
		}
	}
	// A metric registered after the first sweep gets zero-backfilled.
	late := rd.Registry.Counter("late")
	late.Inc()
	rd.Series.Snap()
	ls := rd.Series.Series("late")
	if len(ls) != 4 || ls[0] != 0 || ls[3] != 1 {
		t.Fatalf("late series = %v", ls)
	}
}

// TestRunDataSeriesUnboundedAndBackfilled pins the report series contract:
// every sweep is kept (no ring cap, unlike the flight recorder's default of
// timeseries.DefaultCap rows) and every series, including a gauge registered
// mid-run, has exactly one value per sweep, zero before it existed.
func TestRunDataSeriesUnboundedAndBackfilled(t *testing.T) {
	eng := sim.NewEngine()
	rd := NewRunData(eng, 1, 0) // one sweep per nanosecond
	c := rd.Registry.Counter("events")
	rd.Series.Start()
	const sweeps = timeseries.DefaultCap + 808
	const lateAt = 5000
	eng.Run(lateAt)
	c.Inc()
	rd.Registry.GaugeFunc("late", func() float64 { return 9 }, "k", "v")
	eng.Run(sweeps)
	rd.Series.Stop()

	rep := &Report{}
	rd.Fill(rep)
	if len(rep.SeriesTimesNs) != sweeps || rd.Series.TruncatedSamples() != 0 {
		t.Fatalf("retained %d sweeps (truncated %d), want %d (0)",
			len(rep.SeriesTimesNs), rd.Series.TruncatedSamples(), sweeps)
	}
	if rep.SeriesTimesNs[0] != 1 || rep.SeriesTimesNs[sweeps-1] != sweeps {
		t.Fatalf("times run %d..%d, want 1..%d", rep.SeriesTimesNs[0], rep.SeriesTimesNs[sweeps-1], sweeps)
	}
	if len(rep.Series) != 2 || rep.Series[1].Name != "late{k=v}" {
		t.Fatalf("series = %d, want events and late{k=v}", len(rep.Series))
	}
	for _, s := range rep.Series {
		if len(s.Values) != sweeps {
			t.Fatalf("series %q has %d values, want %d", s.Name, len(s.Values), sweeps)
		}
	}
	ev, late := rep.Series[0].Values, rep.Series[1].Values
	if ev[lateAt-1] != 0 || ev[lateAt] != 1 || ev[sweeps-1] != 1 {
		t.Fatalf("events around the late registration = %v, want [0 1 ... 1]", ev[lateAt-1:lateAt+1])
	}
	if late[0] != 0 || late[lateAt-1] != 0 || late[lateAt] != 9 || late[sweeps-1] != 9 {
		t.Fatal("late gauge not zero-backfilled before its registration")
	}
}

func TestAuditLogCapAndSummary(t *testing.T) {
	log := NewAuditLog(2)
	log.Add(AuditEntry{At: 1, Kind: AuditPlace, Reason: ReasonFresh})
	log.Add(AuditEntry{At: 2, Kind: AuditReroute, Reason: ReasonCongestion})
	log.Add(AuditEntry{At: 3, Kind: AuditVerdict, Reason: ReasonBlackhole})
	if log.Len() != 2 || log.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d", log.Len(), log.Dropped())
	}
	if log.CountKind(AuditPlace) != 1 || log.CountReason(ReasonCongestion) != 1 {
		t.Fatal("count queries wrong")
	}
	got := log.Filter(func(e AuditEntry) bool { return e.At > 1 })
	if len(got) != 1 || got[0].Kind != AuditReroute {
		t.Fatalf("filter = %+v", got)
	}
	s := log.Summary()
	if s.Entries != 2 || s.Dropped != 1 || s.ByKind["place"] != 1 {
		t.Fatalf("summary = %+v", s)
	}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // 2 entries + truncation marker
		t.Fatalf("jsonl lines = %d: %q", len(lines), buf.String())
	}
	if !strings.Contains(lines[2], `"truncated"`) || !strings.Contains(lines[2], `"dropped":1`) {
		t.Fatalf("missing truncation marker: %q", lines[2])
	}
}

// TestAuditLogOverflowTruncation exercises heavy overflow: the cap must hold
// exactly, every excess entry must be counted, and the JSONL export must end
// with a marker carrying the full drop count — truncation is never silent.
func TestAuditLogOverflowTruncation(t *testing.T) {
	log := NewAuditLog(3)
	for i := 0; i < 100; i++ {
		log.Add(AuditEntry{At: int64(i), Kind: AuditPlace, Reason: ReasonFresh, Flow: uint64(i)})
	}
	if log.Len() != 3 || log.Dropped() != 97 {
		t.Fatalf("len=%d dropped=%d, want 3/97", log.Len(), log.Dropped())
	}
	// The kept entries are the first three, not an arbitrary window.
	for i, e := range log.Entries() {
		if e.Flow != uint64(i) {
			t.Fatalf("entry %d = flow %d, want the earliest entries kept", i, e.Flow)
		}
	}
	if s := log.Summary(); s.Dropped != 97 || s.Entries != 3 {
		t.Fatalf("summary = %+v", s)
	}

	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("jsonl lines = %d, want 3 entries + marker", len(lines))
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"kind":"truncated"`) || !strings.Contains(last, `"dropped":97`) {
		t.Fatalf("marker = %q", last)
	}

	// The zero/negative cap falls back to the documented default.
	d := NewAuditLog(0)
	if d.max != DefaultAuditMaxEntries {
		t.Fatalf("default cap = %d", d.max)
	}
	// An uncapped-but-unfilled log emits no marker.
	buf.Reset()
	d.Add(AuditEntry{Kind: AuditVerdict, Reason: ReasonBlackhole})
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "truncated") {
		t.Fatal("marker emitted without overflow")
	}
}

func TestReportDeterministicBytes(t *testing.T) {
	build := func() *Report {
		eng := sim.NewEngine()
		rd := NewRunData(eng, sim.Millisecond, 10)
		rd.Registry.Counter("b.two").Add(2)
		rd.Registry.Counter("a.one").Inc()
		rd.Registry.GaugeFunc("c.fn", func() float64 { return 9 })
		rd.Registry.Histogram("h", []float64{1}).Observe(0.5)
		rd.Audit.Add(AuditEntry{At: 5, Kind: AuditPlace, Reason: ReasonFresh})
		rd.Series.Start()
		eng.Run(2 * sim.Millisecond)
		rd.Series.Stop()
		rep := &Report{Schema: ReportSchema, Scheme: "hermes", Seed: 1}
		rd.Fill(rep)
		return rep
	}
	var j1, j2, c1, c2 bytes.Buffer
	r1, r2 := build(), build()
	if err := r1.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("JSON reports differ between identical builds")
	}
	if err := r1.WriteCSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteCSV(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("CSV reports differ between identical builds")
	}
	if !strings.Contains(c1.String(), "counter,a.one,,1") {
		t.Fatalf("missing counter row:\n%s", c1.String())
	}
	if !strings.Contains(c1.String(), "series,b.two,1000000,2") {
		t.Fatalf("missing series row:\n%s", c1.String())
	}
	var txt bytes.Buffer
	if err := r1.RenderText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "audit: 1 entries") {
		t.Fatalf("text summary missing audit:\n%s", txt.String())
	}
}
