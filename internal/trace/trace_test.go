package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/wire"
)

func advance(sim *netsim.Sim, d netsim.Duration) {
	sim.Schedule(d, func() {})
	sim.Run()
}

func TestSamplingCounter(t *testing.T) {
	sim := netsim.NewSim(1)
	r := NewRecorder(sim, Config{SampleEvery: 3})
	var sampled []bool
	for i := 0; i < 9; i++ {
		sampled = append(sampled, r.StartRoot("op") != nil)
	}
	want := []bool{true, false, false, true, false, false, true, false, false}
	for i := range want {
		if sampled[i] != want[i] {
			t.Fatalf("op %d sampled=%v, want %v", i, sampled[i], want[i])
		}
	}
}

func TestDisabledRecorderIsNil(t *testing.T) {
	sim := netsim.NewSim(1)
	if r := NewRecorder(sim, Config{}); r != nil {
		t.Fatal("zero config must yield a nil recorder")
	}
	if r := NewRecorder(sim, Config{SampleEvery: -1}); r != nil {
		t.Fatal("negative SampleEvery must yield a nil recorder")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if sp := r.StartRoot("op"); sp != nil {
		t.Fatal("nil recorder produced a span")
	}
	if sp := r.StartSpan(Ctx{Trace: 1, Span: 1}, KindSend, "s"); sp != nil {
		t.Fatal("nil recorder produced a child span")
	}
	r.Mark(Ctx{Trace: 1, Span: 1}, KindRetrans, "rtx")
	r.Reset()
	if r.Spans() != nil || r.Dropped() != 0 {
		t.Fatal("nil recorder holds state")
	}
	if r.LinkHook() != nil {
		t.Fatal("nil recorder returned a link hook")
	}

	var sp *Span
	sp.End()
	sp.EndAt(5)
	sp.SetAttr("k", "v")
	if sp.Duration() != 0 {
		t.Fatal("nil span has duration")
	}
	if sp.Ctx().Traced() {
		t.Fatal("nil span context is traced")
	}
}

func TestSpanTreeAndContext(t *testing.T) {
	sim := netsim.NewSim(1)
	r := NewRecorder(sim, Config{SampleEvery: 1})
	root := r.StartRoot("op:test")
	if root == nil || root.Trace != root.ID {
		t.Fatalf("root = %+v; trace ID must equal span ID", root)
	}
	advance(sim, 10*netsim.Microsecond)
	child := r.StartSpan(root.Ctx(), KindSend, "send:mem")
	if child.Parent != root.ID || child.Trace != root.Trace {
		t.Fatalf("child = %+v not parented under root %d", child, root.ID)
	}
	advance(sim, 5*netsim.Microsecond)
	child.End()
	advance(sim, 5*netsim.Microsecond)
	root.End()
	root.End() // idempotent: first End wins

	if got := root.Duration(); got != 20*netsim.Microsecond {
		t.Fatalf("root duration = %v, want 20µs", got)
	}
	if got := child.Duration(); got != 5*netsim.Microsecond {
		t.Fatalf("child duration = %v, want 5µs", got)
	}

	var h wire.Header
	child.Ctx().Inject(&h)
	if h.Flags&wire.FlagTraced == 0 || h.TraceID != root.Trace || h.SpanID != child.ID {
		t.Fatalf("injected header = %+v", h)
	}
	// A zero Ctx must leave the header untouched.
	var clean wire.Header
	(Ctx{}).Inject(&clean)
	if clean.Flags != 0 || clean.TraceID != 0 {
		t.Fatalf("zero ctx dirtied header: %+v", clean)
	}
}

func TestResetKeepsSamplingParity(t *testing.T) {
	sim := netsim.NewSim(1)
	r := NewRecorder(sim, Config{SampleEvery: 2})
	if r.StartRoot("a") == nil {
		t.Fatal("op 0 should sample")
	}
	r.Reset()
	if len(r.Spans()) != 0 {
		t.Fatal("Reset left spans behind")
	}
	if r.StartRoot("b") != nil {
		t.Fatal("op 1 should not sample: Reset must not rewind the counter")
	}
	if r.StartRoot("c") == nil {
		t.Fatal("op 2 should sample")
	}
}

func TestMaxSpansDrops(t *testing.T) {
	sim := netsim.NewSim(1)
	r := NewRecorder(sim, Config{SampleEvery: 1})
	r.maxSpans = 2
	root := r.StartRoot("op")
	r.StartSpan(root.Ctx(), KindSend, "s1")
	if sp := r.StartSpan(root.Ctx(), KindSend, "s2"); sp != nil {
		t.Fatal("span over the bound was recorded")
	}
	if r.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", r.Dropped())
	}
}

// synthetic builds a closed span without a recorder (fields are
// exported precisely so tests and importers can construct fixtures).
func synthetic(trace, id, parent uint64, kind Kind, name string, start, finish netsim.Time) *Span {
	return &Span{Trace: trace, ID: id, Parent: parent, Kind: kind,
		Name: name, Start: start, Finish: finish}
}

func TestBreakdownDeepestWins(t *testing.T) {
	us := netsim.Time(netsim.Microsecond)
	root := synthetic(1, 1, 0, KindOp, "op", 0, 100*us)
	spans := []*Span{
		root,
		synthetic(1, 2, 1, KindSend, "send", 10*us, 90*us),
		synthetic(1, 3, 2, KindLink, "link", 20*us, 60*us),
	}
	rows := Breakdown(spans, root)
	got := map[string]netsim.Duration{}
	for _, r := range rows {
		got[r.Label] = r.Dur
	}
	// link (depth 2) shadows send inside [20,60); send covers the rest
	// of its interval; [0,10) and [90,100) fall to host.
	if got["link"] != 40*netsim.Microsecond {
		t.Fatalf("link = %v, want 40µs", got["link"])
	}
	if got["send"] != 40*netsim.Microsecond {
		t.Fatalf("send = %v, want 40µs", got["send"])
	}
	if got["host"] != 20*netsim.Microsecond {
		t.Fatalf("host = %v, want 20µs", got["host"])
	}
	var sum netsim.Duration
	for _, r := range rows {
		sum += r.Dur
	}
	if sum != root.Duration() {
		t.Fatalf("breakdown sums to %v, root is %v", sum, root.Duration())
	}
}

func TestBreakdownOpenRootNil(t *testing.T) {
	open := &Span{Trace: 1, ID: 1, open: true}
	if rows := Breakdown([]*Span{open}, open); rows != nil {
		t.Fatal("breakdown of an open root must be nil")
	}
	if rows := Breakdown(nil, nil); rows != nil {
		t.Fatal("breakdown of nil root must be nil")
	}
}

func TestWriteTreeRendersHierarchy(t *testing.T) {
	us := netsim.Time(netsim.Microsecond)
	spans := []*Span{
		synthetic(1, 1, 0, KindOp, "op:read", 0, 30*us),
		synthetic(1, 2, 1, KindSend, "send:mem", 5*us, 25*us),
		synthetic(1, 3, 2, KindSwitch, "sw:tor", 10*us, 12*us),
		synthetic(2, 4, 0, KindOp, "other-trace", 0, us),
	}
	var b bytes.Buffer
	WriteTree(&b, spans, 1)
	out := b.String()
	for _, want := range []string{"op:read", "send:mem", "sw:tor"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "other-trace") {
		t.Fatalf("tree leaked a foreign trace:\n%s", out)
	}
	// The switch span sits two levels deep: more indentation than root.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "sw:tor") && !strings.Contains(line, "    switch") {
			t.Fatalf("sw:tor not indented two levels: %q", line)
		}
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	us := netsim.Time(netsim.Microsecond)
	spans := []*Span{
		synthetic(1, 1, 0, KindOp, "op", 0, 10*us),
		synthetic(1, 2, 1, KindLink, "link", 2*us, 8*us),
	}
	spans[1].SetAttr("queue", "0.00µs")
	var b bytes.Buffer
	if err := WriteChrome(&b, spans); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, b.String())
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[1]["ph"] != "X" || events[1]["name"] != "link" {
		t.Fatalf("event = %+v", events[1])
	}
	args, _ := events[1]["args"].(map[string]any)
	if args["parent"] != "1" || args["queue"] != "0.00µs" {
		t.Fatalf("args = %+v", args)
	}
}

func TestRootAndTraceIDs(t *testing.T) {
	spans := []*Span{
		synthetic(1, 1, 0, KindOp, "a", 0, 1),
		synthetic(1, 2, 1, KindSend, "b", 0, 1),
		synthetic(3, 3, 0, KindOp, "c", 0, 1),
	}
	if ids := TraceIDs(spans); len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("TraceIDs = %v", ids)
	}
	if r := Root(spans, 1); r == nil || r.Name != "a" {
		t.Fatalf("Root(1) = %+v", r)
	}
	if r := Root(spans, 2); r != nil {
		t.Fatal("Root(2) should be nil: span 2 is not a root")
	}
	if got := ByTrace(spans, 1); len(got) != 2 {
		t.Fatalf("ByTrace(1) = %d spans, want 2", len(got))
	}
}

// BenchmarkTrace_RootSpan measures the per-operation cost with
// sampling at 1 (worst case): one root span started and ended.
func BenchmarkTrace_RootSpan(b *testing.B) {
	sim := netsim.NewSim(1)
	r := NewRecorder(sim, Config{SampleEvery: 1})
	r.maxSpans = 1 << 30
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := r.StartRoot("op:bench")
		sp.End()
	}
}

// BenchmarkTrace_Unsampled measures the fast path a production run
// pays per operation when the recorder exists but the op is sampled
// out — must stay allocation-free.
func BenchmarkTrace_Unsampled(b *testing.B) {
	sim := netsim.NewSim(1)
	r := NewRecorder(sim, Config{SampleEvery: 1 << 30})
	r.StartRoot("op:first") // consume the one sampled op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := r.StartRoot("op:bench")
		sp.End()
	}
}

// BenchmarkTrace_Disabled measures the nil-recorder path every
// instrumentation site pays when tracing is off.
func BenchmarkTrace_Disabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := r.StartRoot("op:bench")
		sp2 := r.StartSpan(sp.Ctx(), KindSend, "send")
		sp2.End()
		sp.End()
	}
}
