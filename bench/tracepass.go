package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/trace"
)

// The traced run yields the per-layer metrics and never feeds an
// end-to-end one. It runs the workload twice at a quarter of the
// requested length with one seed, first untraced (the per-workload
// counts, and the speed tracing is compared with), then with one root
// operation in 64 traced, and finally the isolated layer harness.
const (
	tracedShare    = 0.25
	sampleEvery    = 64
	traceFileRoots = 200 // sampled operations kept in the trace file
)

// traceFile receives the first sampled operations' spans and the
// bench's own harness spans as Chrome trace events ("" writes nothing).
var traceFile = "bench/out/trace.json"

// traceSegments are the parts a sampled op's root span is cut into:
// every instant goes to the deepest span active at it, a link span's
// share further split by its queue/tx/prop attributes, and instants no
// child span covers to "host".
var traceSegments = []string{"link_queue", "link_tx", "link_prop", "switch", "resolve", "send", "dispatch", "host"}

const (
	segQueue = iota
	segTx
	segProp
	segSwitch
	segResolve
	segSend
	segDispatch
	segHost
	numSegments
)

// segmentOf maps a span kind to its segment; link spans are split by
// the caller, everything not listed is host time.
var segmentOf = map[trace.Kind]int{
	trace.KindSwitch: segSwitch, trace.KindResolve: segResolve,
	trace.KindSend: segSend, trace.KindDispatch: segDispatch,
}

type tracedOut struct {
	metrics           map[string]metricValue
	checks            []string
	attempted, failed uint64
}

func tracedRun(s *spec, seed int64, seconds float64, harnessIters int) (*tracedOut, error) {
	ref, err := execute(s, seed, seconds*tracedShare, 1, trace.Config{}, 0)
	if err != nil {
		return nil, err
	}
	tr, err := execute(s, seed, seconds*tracedShare, 1, trace.Config{SampleEvery: sampleEvery}, ref.clients)
	if err != nil {
		return nil, err
	}
	h, err := runHarness(seed, harnessIters)
	if err != nil {
		return nil, err
	}

	vals := layerCounts(s, ref.best, ref.clients)
	for _, p := range ref.passes {
		if p == ref.best || p.inSLO {
			vals["workload.peak_ops_s"] = max(vals["workload.peak_ops_s"], p.goodput())
		}
	}
	for _, t := range h.timings {
		v := t.ns
		if harnessUnit(t.row) == "us" {
			v /= 1e3
		}
		vals[t.row+"_"+harnessUnit(t.row)] = v
		vals[t.row+"_allocs"] = t.allocs
	}
	for scheme, us := range h.coldVT {
		vals["discovery."+scheme+"_cold_vt_us"] = us
	}
	vals["core.read_unattributed_pct"] = h.unattrPct
	fmt.Printf("%s component table behind core.read_unattributed_pct (core.remote_read_ns = %.0f):\n", s.name, h.ns("core.remote_read"))
	for _, c := range h.components {
		fmt.Printf("%s   %-26s %6.2f per read x %8.1f ns = %8.1f ns\n", s.name, c.row, c.perOp, c.ns, c.estimate)
	}

	out := &tracedOut{}
	spans := tr.tracer.Spans()
	sum, roots, bad := summarize(spans)
	out.checks = append(append(ref.check(), tr.check()...), bad...)
	if roots == 0 {
		out.checks = append(out.checks, "the traced pass sampled no operation")
	}
	n := float64(max(roots, 1))
	for i, seg := range traceSegments {
		vals["trace."+seg+"_us"] = sum.seg[i].Microseconds() / n
	}
	vals["trace.root_us"] = sum.root.Microseconds() / n
	vals["trace.rtx_per_op"] = float64(sum.rtx) / n
	vals["trace.sampled_ops"] = float64(roots)
	vals["trace.overhead_pct"] = 100 * (1 - median(tr.best.slices)/median(ref.best.slices))

	out.metrics = make(map[string]metricValue, len(perLayer))
	for _, def := range perLayer {
		mv := metricValue{Value: vals[def.name], Unit: def.unit, Clock: def.clock}
		if def.clock == "workload" {
			mv.Clock = s.clock()
		}
		out.metrics[def.name] = mv
	}
	a1, f1 := ref.totals()
	a2, f2 := tr.totals()
	out.attempted, out.failed = a1+a2, f1+f2
	if err := writeTrace(spans, h.timings); err != nil {
		return nil, err
	}
	return out, nil
}

// pathSum accumulates critical-path segments over sampled ops.
type pathSum struct {
	seg  [numSegments]backend.Duration
	root backend.Duration
	rtx  int
}

// summarize cuts every sampled root operation's span into segments and
// sums them. It reports each root whose segments do not add up to its
// duration within a nanosecond.
func summarize(spans []*trace.Span) (sum pathSum, roots int, bad []string) {
	byTrace := map[uint64][]*trace.Span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	for _, s := range spans {
		if s.ID != s.Trace || s.Finish <= s.Start {
			continue // not a root, or still open when the run ended
		}
		seg, rtx := criticalPath(byTrace[s.Trace], s)
		var total backend.Duration
		for i, d := range seg {
			sum.seg[i] += d
			total += d
		}
		if diff := total - s.Duration(); diff < -1 || diff > 1 {
			bad = append(bad, fmt.Sprintf("trace %d (%s): segments sum to %v, root span is %v", s.Trace, s.Name, total, s.Duration()))
		}
		sum.root += s.Duration()
		sum.rtx += rtx
		roots++
	}
	return sum, roots, bad
}

// criticalPath attributes every instant of root's interval to the
// deepest span of its trace active at that instant (the later-created
// one on a tie), so a span's self time is its duration minus what its
// children cover.
func criticalPath(ts []*trace.Span, root *trace.Span) (seg [numSegments]backend.Duration, rtx int) {
	byID := make(map[uint64]*trace.Span, len(ts))
	for _, s := range ts {
		byID[s.ID] = s
	}
	type active struct {
		s           *trace.Span
		depth       int
		queue, txed backend.Time // link spans: where queueing and serialisation end
	}
	var within []active
	cuts := []backend.Time{root.Start, root.Finish}
	cut := func(t backend.Time) {
		if t > root.Start && t < root.Finish {
			cuts = append(cuts, t)
		}
	}
	for _, s := range ts {
		if s.Kind == trace.KindRetrans {
			rtx++
		}
		if s == root || s.Finish <= s.Start || s.Finish <= root.Start || s.Start >= root.Finish {
			continue
		}
		a := active{s: s}
		for cur := s; cur != nil && cur.Parent != 0 && a.depth < 64; a.depth++ {
			cur = byID[cur.Parent]
		}
		if s.Kind == trace.KindLink {
			a.queue = s.Start.Add(attrDuration(s, "queue"))
			a.txed = a.queue.Add(attrDuration(s, "tx"))
			cut(a.queue)
			cut(a.txed)
		}
		cut(s.Start)
		cut(s.Finish)
		within = append(within, a)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		var best *active
		for j := range within {
			a := &within[j]
			if a.s.Start <= lo && a.s.Finish >= hi &&
				(best == nil || a.depth > best.depth || (a.depth == best.depth && a.s.ID > best.s.ID)) {
				best = a
			}
		}
		which := segHost
		switch {
		case best == nil:
		case best.s.Kind == trace.KindLink && hi <= best.queue:
			which = segQueue
		case best.s.Kind == trace.KindLink && hi <= best.txed:
			which = segTx
		case best.s.Kind == trace.KindLink:
			which = segProp
		default:
			if sg, ok := segmentOf[best.s.Kind]; ok {
				which = sg
			}
		}
		seg[which] += hi.Sub(lo)
	}
	return seg, rtx
}

// attrDuration reads a duration attribute as the trace package writes
// it ("12.34µs", so to 10 ns).
func attrDuration(s *trace.Span, key string) backend.Duration {
	for _, a := range s.Attrs {
		if a.Key == key {
			us, err := strconv.ParseFloat(strings.TrimSuffix(a.Val, "µs"), 64)
			if err != nil {
				return 0
			}
			return backend.Duration(us*1e3 + 0.5)
		}
	}
	return 0
}

// writeTrace writes the first sampled operations' spans, and one span
// of the bench's own per harness row (host time since the first row),
// as Chrome trace events.
func writeTrace(spans []*trace.Span, rows []timing) error {
	if traceFile == "" {
		return nil
	}
	keep := map[uint64]bool{}
	var out []*trace.Span
	for _, s := range spans {
		if !keep[s.Trace] && len(keep) >= traceFileRoots {
			continue
		}
		keep[s.Trace] = true
		out = append(out, s)
	}
	const harnessTrace = 1 << 62
	for i, t := range rows {
		out = append(out, &trace.Span{
			Trace: harnessTrace, ID: harnessTrace + uint64(i) + 1, Kind: trace.KindOther,
			Name:   fmt.Sprintf("harness:%s x%d", t.row, t.iters),
			Start:  backend.Time(t.start.Sub(rows[0].start)),
			Finish: backend.Time(t.stop.Sub(rows[0].start)),
		})
	}
	if err := os.MkdirAll(filepath.Dir(traceFile), 0o755); err != nil {
		return err
	}
	f, err := os.Create(traceFile)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
