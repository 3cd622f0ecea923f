package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestTraceRootEqualsMeasuredRTT pins the tentpole invariant: for both
// discovery schemes, the root span of a traced cold access lasts
// exactly as long as the RTT measured by bracketing the callback on
// the virtual clock.
func TestTraceRootEqualsMeasuredRTT(t *testing.T) {
	reps, err := traceBreakdown(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("reports = %d, want one per scheme", len(reps))
	}
	for _, r := range reps {
		if r.RootUS != r.MeasuredUS {
			t.Errorf("%s: root span %.2fµs != measured RTT %.2fµs",
				r.Scheme, r.RootUS, r.MeasuredUS)
		}
		if r.Spans < 5 {
			t.Errorf("%s: only %d spans — hops not instrumented", r.Scheme, r.Spans)
		}
		for _, want := range []string{"link:", "sw:", "send:", "dispatch:"} {
			if !strings.Contains(r.Tree, want) {
				t.Errorf("%s: tree missing %q spans:\n%s", r.Scheme, want, r.Tree)
			}
		}
		if !strings.Contains(r.Breakdown, "link") || !strings.Contains(r.Breakdown, "total") {
			t.Errorf("%s: breakdown incomplete:\n%s", r.Scheme, r.Breakdown)
		}
	}
	// A cold E2E access pays broadcast discovery before the data RTT,
	// so its trace must cover strictly more hops than the controller's
	// pre-installed route.
	if reps[0].Spans <= reps[1].Spans {
		t.Errorf("E2E trace (%d spans) should exceed controller (%d)",
			reps[0].Spans, reps[1].Spans)
	}
	if !strings.Contains(reps[0].Tree, "resolve:e2e") {
		t.Errorf("E2E trace missing discovery resolution:\n%s", reps[0].Tree)
	}
}

// lossyTracedCluster builds an E2E cluster with heavy frame loss and
// the given trace config — the fault-schedule fixture for the
// retransmission-span and zero-perturbation tests.
func lossyTracedCluster(t *testing.T, seed int64, tc trace.Config) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{
		Seed:      seed,
		Scheme:    core.SchemeE2E,
		Fabric:    netsim.FabricConfig{DropRate: 0.25},
		Discovery: discovery.Config{Retries: 40, Timeout: 500 * netsim.Microsecond},
		Trace:     tc,
		Transport: transport.Config{
			RetryBudget:          100 * netsim.Millisecond,
			MaxRetransmitTimeout: 2 * netsim.Millisecond,
			RequestTimeout:       200 * netsim.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTracedRetransmitSpans runs a traced reliable transfer under 25%
// frame loss and asserts the span tree records the retransmissions as
// rtx marks while the root still equals the measured completion time.
func TestTracedRetransmitSpans(t *testing.T) {
	c := lossyTracedCluster(t, 3, trace.Config{SampleEvery: 1})
	owner, reader := c.Node(1), c.Node(0)
	o, err := owner.CreateObject(128 << 10)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	c.ResetStats()
	c.Tracer.Reset()

	start := c.Sim.Now()
	var rtt netsim.Duration
	var accErr error = errNever
	reader.Deref(object.Global{Obj: o.ID()}).Then(func(_ *object.Object, err error) {
		accErr = err
		rtt = c.Sim.Now().Sub(start)
	})
	c.Run()
	if accErr != nil {
		t.Fatal(accErr)
	}

	spans := c.Tracer.Spans()
	ids := trace.TraceIDs(spans)
	if len(ids) == 0 {
		t.Fatal("no trace recorded")
	}
	root := trace.Root(spans, ids[0])
	if root == nil {
		t.Fatal("trace has no root span")
	}
	if got := root.Duration(); got != rtt {
		t.Errorf("root span %v != measured completion %v", got, rtt)
	}

	var rtxSpans, rtxWire uint64
	for _, s := range spans {
		if s.Kind == trace.KindRetrans {
			rtxSpans++
			if s.Duration() != 0 {
				t.Errorf("rtx mark %q has nonzero duration %v", s.Name, s.Duration())
			}
		}
	}
	for _, n := range c.Nodes {
		rtxWire += n.EP.Counters().Retransmits
	}
	if rtxWire == 0 {
		t.Fatal("fixture produced no retransmits; raise loss or size")
	}
	if rtxSpans == 0 {
		t.Errorf("transport retransmitted %d times but recorded no rtx spans", rtxWire)
	}
	// Every access was sampled, so every data-path retransmit must
	// surface in the trace.
	if rtxSpans != rtxWire {
		t.Errorf("rtx spans = %d, transport counters = %d", rtxSpans, rtxWire)
	}
}

var errNever = &neverErr{}

type neverErr struct{}

func (*neverErr) Error() string { return "access never completed" }

// lossyRTTs runs the same ten-access workload on a lossyTracedCluster
// and returns every access's completion time plus the total
// retransmit count — the full observable fingerprint of the run.
func lossyRTTs(t *testing.T, tc trace.Config) ([]netsim.Duration, uint64) {
	t.Helper()
	c := lossyTracedCluster(t, 7, tc)
	owner, reader := c.Node(1), c.Node(0)
	var oids []object.Global
	for i := 0; i < 10; i++ {
		o, err := owner.CreateObject(16 << 10)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, object.Global{Obj: o.ID()})
	}
	c.Run()

	var rtts []netsim.Duration
	for _, g := range oids {
		start := c.Sim.Now()
		var accErr error = errNever
		reader.Deref(g).Then(func(_ *object.Object, err error) {
			accErr = err
			rtts = append(rtts, c.Sim.Now().Sub(start))
		})
		c.Run()
		if accErr != nil {
			t.Fatal(accErr)
		}
	}
	var rtx uint64
	for _, n := range c.Nodes {
		rtx += n.EP.Counters().Retransmits
	}
	return rtts, rtx
}

// TestTracingZeroPerturbation is the determinism contract: the
// recorder never schedules events and never consumes simulation
// randomness, so with sampling disabled a seeded lossy workload
// replays bit-identically, and with the recorder enabled every
// *unsampled* operation still leaves no fingerprint. Sampled
// operations are deliberately excluded: their frames carry the
// 24-byte trace extension on the wire, so their serialization time —
// like any real in-band tracing system's — is honestly longer.
func TestTracingZeroPerturbation(t *testing.T) {
	off, offRtx := lossyRTTs(t, trace.Config{})
	replay, replayRtx := lossyRTTs(t, trace.Config{})
	// SampleEvery of 1<<20 samples only the first access; the other
	// nine run with the recorder live but the operation unsampled.
	sparse, sparseRtx := lossyRTTs(t, trace.Config{SampleEvery: 1 << 20})

	if offRtx == 0 {
		t.Fatal("workload produced no retransmits; perturbation test is vacuous")
	}
	if replayRtx != offRtx || sparseRtx != offRtx {
		t.Errorf("retransmit counts diverged: off=%d replay=%d sparse=%d",
			offRtx, replayRtx, sparseRtx)
	}
	for i := range off {
		if replay[i] != off[i] {
			t.Errorf("access %d: replay %v != original %v", i, replay[i], off[i])
		}
		if i > 0 && sparse[i] != off[i] {
			t.Errorf("access %d: unsampled-but-enabled %v != untraced %v",
				i, sparse[i], off[i])
		}
	}
}

// TestTelemetrySnapshotStableNames exercises the unified stats
// surface: one registry snapshot spanning every layer, under the
// documented metric names.
func TestTelemetrySnapshotStableNames(t *testing.T) {
	c, err := core.NewCluster(core.Config{Seed: 11, Scheme: core.SchemeE2E,
		Trace: trace.Config{SampleEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	owner, reader := c.Node(1), c.Node(0)
	o, err := owner.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	done := false
	reader.Deref(object.Global{Obj: o.ID()}).Then(func(_ *object.Object, err error) {
		if err != nil {
			t.Errorf("deref: %v", err)
		}
		done = true
	})
	c.Run()
	if !done {
		t.Fatal("access never completed")
	}

	snap := c.Telemetry()
	for _, name := range []string{
		"net.frames_delivered",
		"switch.frames_in",
		"transport.frames_sent",
		"mux.dispatched",
		"coherence.remote_acquires",
		"discovery.broadcasts",
		"trace.spans",
	} {
		if !slices.Contains(snap.Names(), name) {
			t.Errorf("metric %q missing from snapshot; have:\n%s", name, snap.String())
			continue
		}
		if snap.Value(name) == 0 {
			t.Errorf("metric %q is zero after a remote access", name)
		}
	}
	if snap.Len() == 0 || len(snap.Names()) != snap.Len() {
		t.Fatalf("inconsistent snapshot: %d names", snap.Len())
	}
	// Rendering is sorted and line-per-metric: stable enough to diff.
	lines := strings.Count(strings.TrimRight(snap.String(), "\n"), "\n") + 1
	if lines != snap.Len() {
		t.Errorf("String() rendered %d lines for %d metrics", lines, snap.Len())
	}
}
