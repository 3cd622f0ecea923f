package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/backend"
	"repro/internal/trace"
)

// tiny is a run length that keeps the whole file to a few seconds: a
// few thousand ops per workload.
const tiny = 0.05

// declaration is BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declared `json:"end_to_end"`
	PerLayer   []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              *float64
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// BENCHMARK.json and the tables in the code must say the same thing,
// within the limits the driver puts on the file.
func TestDeclarationMatchesCode(t *testing.T) {
	d := readDeclaration(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(d.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(d.Workloads), len(specs))
	}
	for i, w := range d.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	same := func(kind string, got []declared, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json says %s/%s/%s, the code %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: name %q or unit %q is outside the driver's alphabet", kind, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("metric name %q is used twice", g.Name)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd, true)
	same("per_layer", d.PerLayer, perLayer, false)
	if len(d.PerLayer) > 128 || len(d.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the driver's limits", len(d.EndToEnd), len(d.PerLayer))
	}
	if d.EndToEnd[0].Name != "setup_s" || d.EndToEnd[0].Unit != "s" || d.EndToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
}

// simulated lists what must repeat exactly for a fixed seed: every
// virtual-clock number and every count that host time does not enter.
func simulated(t *testing.T, out *outcome) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for name, v := range out.endToEnd() {
		if v.Clock == "virtual" || name == "completed_share" {
			m[name] = v.Value
		}
	}
	for name, v := range layerCounts(out.spec, out.best, out.clients) {
		switch name {
		case "netsim.wall_ns_per_event", "host.speed", "gc.cycles", "gc.pause_total_ms", "gc.bytes_per_op":
		default:
			m[name] = v
		}
	}
	a, f := out.totals()
	m["attempted"], m["failed"] = float64(a), float64(f)
	return m
}

func tinyRun(t *testing.T, s *spec, seed int64) *outcome {
	t.Helper()
	out, err := execute(s, seed, tiny, 1, trace.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out.check() {
		t.Errorf("%s: check failed: %s", s.name, c)
	}
	if _, failed := out.totals(); failed != 0 {
		t.Errorf("%s: %d ops failed or never finished", s.name, failed)
	}
	return out
}

// Every workload emits the declared end-to-end metrics and nothing
// else, withholding only percentiles its sample cannot support; two
// same-seed simulated runs agree to the bit; another seed changes the
// schedule.
func TestWorkloadsEmitDeclaredMetricsAndRepeat(t *testing.T) {
	for _, s := range specs {
		out := tinyRun(t, s, 1)
		got := out.endToEnd()
		n := len(out.best.latencies())
		for _, def := range endToEnd {
			_, ok := got[def.name]
			want := true
			switch def.name {
			case "lat_p50_us":
				want = supported(n, 0.5)
			case "lat_p99_us":
				want = supported(n, 0.99)
			}
			if ok != want {
				t.Errorf("%s: %s emitted=%v with %d samples, want %v", s.name, def.name, ok, n, want)
			}
			if ok && (got[def.name].Value <= 0 || math.IsNaN(got[def.name].Value)) {
				t.Errorf("%s: %s = %v; end-to-end metrics are never 0", s.name, def.name, got[def.name].Value)
			}
		}
		if len(got) > len(endToEnd) {
			t.Errorf("%s: emits metrics BENCHMARK.json does not declare: %v", s.name, got)
		}
		if s.clock() != "virtual" {
			continue
		}
		first, again := simulated(t, out), simulated(t, tinyRun(t, s, 1))
		for name, v := range first {
			if again[name] != v {
				t.Errorf("%s: %s is %v and then %v for the same seed", s.name, name, v, again[name])
			}
		}
		if s.name == "sim_mix_steady" {
			other := simulated(t, tinyRun(t, s, 2))
			if other["attempted"] == first["attempted"] && other["goodput_mb_s"] == first["goodput_mb_s"] {
				t.Errorf("%s: seed 2 reproduced seed 1's schedule", s.name)
			}
		}
	}
}

// A traced run emits exactly the declared per-layer metrics, and its
// critical-path check passes, on both clocks.
func TestTracedRunEmitsPerLayerMetrics(t *testing.T) {
	traceFile = filepath.Join(t.TempDir(), "trace.json")
	for _, name := range []string{"sim_mix_steady", "real_rw_closed"} {
		tp, err := tracedRun(findSpec(name), 1, 4*tiny, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range tp.checks {
			t.Errorf("%s: check failed: %s", name, c)
		}
		if len(tp.metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, %d declared", name, len(tp.metrics), len(perLayer))
		}
		for _, def := range perLayer {
			if v, ok := tp.metrics[def.name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v, emitted=%v", name, def.name, v.Value, ok)
			}
		}
		if tp.metrics["trace.sampled_ops"].Value == 0 {
			t.Errorf("%s: no operation was sampled", name)
		}
	}
	if _, err := os.Stat(traceFile); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}

func TestPercentiles(t *testing.T) {
	if supported(999, 0.99) || !supported(1000, 0.99) || supported(9999, 0.999) || !supported(20, 0.5) {
		t.Error("a percentile needs ten samples beyond it, no fewer and no more")
	}
	// All distinct: plain interpolation between order statistics.
	xs := []backend.Duration{10, 20, 30, 40}
	if got := quantile(xs, 0.5); got != 20 {
		t.Errorf("quantile(10..40, 0.5) = %v", got)
	}
	// A run of equal values: the rank's place inside the run counts.
	tied := []backend.Duration{10, 20, 20, 20, 20}
	lo, hi := quantile(tied, 0.3), quantile(tied, 0.7)
	if !(10 < lo && lo < hi && hi < 20) {
		t.Errorf("quantiles inside a run of ties: %v, %v", lo, hi)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
}

// A parent span's self time is its duration minus its children, a link
// span splits by its attributes, and the segments sum to the root.
func TestCriticalPath(t *testing.T) {
	root := &trace.Span{Trace: 1, ID: 1, Kind: trace.KindOp, Start: 0, Finish: 100}
	send := &trace.Span{Trace: 1, ID: 2, Parent: 1, Kind: trace.KindSend, Start: 10, Finish: 90}
	link := &trace.Span{Trace: 1, ID: 3, Parent: 2, Kind: trace.KindLink, Start: 20, Finish: 60,
		Attrs: []trace.Attr{{Key: "queue", Val: "0.01µs"}, {Key: "tx", Val: "0.02µs"}}}
	rtx := &trace.Span{Trace: 1, ID: 4, Parent: 2, Kind: trace.KindRetrans, Start: 50, Finish: 50}
	sum, roots, bad := summarize([]*trace.Span{root, send, link, rtx})
	want := [numSegments]backend.Duration{segQueue: 10, segTx: 20, segProp: 10, segSend: 40, segHost: 20}
	if roots != 1 || len(bad) != 0 || sum.seg != want || sum.root != 100 || sum.rtx != 1 {
		t.Errorf("roots %d bad %v segments %v root %v rtx %d", roots, bad, sum.seg, sum.root, sum.rtx)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// wall_ops_s is on the host's clock, lat_p50_us on the simulator's.
	rep := func(wallOps, spread, lat float64) report {
		return report{Workloads: []workloadReport{{Name: "sim_mix_steady", Summary: map[string]quartile{
			"wall_ops_s": {N: 10, Median: wallOps, Spread: spread, Clock: "wall"},
			"lat_p50_us": {N: 10, Median: lat, Spread: 0.03, Clock: "virtual"},
		}}}}
	}
	decl := write("BENCHMARK.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "wall_ops_s", "better": "higher", "bound": 0.05},
		{"name": "lat_p50_us", "better": "lower", "bound": 0.25}}})
	base := write("a.json", rep(100, 0.01, 140))
	if got := compareMain([]string{"-benchmark", decl, base, base}); got != 0 {
		t.Errorf("a report against itself: compare exits %d", got)
	}
	for _, c := range []struct {
		name string
		b    report
		exit int
	}{
		{"same", rep(99, 0.01, 140), 0},
		{"better", rep(150, 0.01, 120), 0},
		{"regressed", rep(90, 0.01, 140), 1},
		{"unresolved", rep(90, 0.2, 140), 0},
		// A simulated figure is held to 2%, whatever the file's one bound
		// per metric says, and the seeds' spread does not excuse it.
		{"virtual", rep(100, 0.01, 145), 1},
	} {
		if got := compareMain([]string{"-benchmark", decl, base, write(c.name+".json", c.b)}); got != c.exit {
			t.Errorf("%s: compare exits %d, want %d", c.name, got, c.exit)
		}
	}
}
