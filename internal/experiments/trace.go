package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// TraceReport is one scheme's traced cold access: the full span tree,
// the critical-path breakdown, and the externally measured RTT to
// cross-check the root span against.
type TraceReport struct {
	Scheme     string
	MeasuredUS float64 // RTT bracketed around the access callback
	RootUS     float64 // root span duration (must equal MeasuredUS)
	Spans      int     // spans in the trace
	Tree       string  // rendered span tree
	Breakdown  string  // rendered critical-path table
}

// traceBreakdown reproduces Figure 2's cold-access comparison with
// tracing sampled at 1: one uncached read per discovery scheme, every
// hop — transport send, switch lookups, link traversals, dispatch —
// annotated causally. The root span's duration equals the externally
// measured RTT by construction (both bracket the same virtual-clock
// instants); the integration tests pin that invariant.
func traceBreakdown(seed int64) ([]TraceReport, error) {
	return sweep([]core.Scheme{core.SchemeE2E, core.SchemeController},
		func(scheme core.Scheme) (TraceReport, error) { return traceColdAccess(seed, scheme) })
}

// traceColdAccess runs one fully traced cold read under scheme.
func traceColdAccess(seed int64, scheme core.Scheme) (TraceReport, error) {
	c, err := core.NewCluster(core.Config{
		Seed:   seed + int64(scheme),
		Scheme: scheme,
		Trace:  trace.Config{SampleEvery: 1},
	})
	if err != nil {
		return TraceReport{}, err
	}
	driver := c.Node(0)
	o, err := c.Node(1).CreateObject(4096)
	if err != nil {
		return TraceReport{}, err
	}
	c.Run() // announcement (controller rule install) settles off-path

	// The access is cold: under E2E the driver's destination cache is
	// empty so the read pays broadcast discovery; under the controller
	// scheme the pre-installed object route carries it in one RTT.
	c.Tracer.Reset()
	start := c.Sim.Now()
	var rtt netsim.Duration
	accErr := fmt.Errorf("trace access never completed")
	driver.Coherence.ReadAt(o.ID(), 0, 64).Then(func(_ []byte, err error) {
		accErr = err
		rtt = c.Sim.Now().Sub(start)
	})
	c.Run()
	if accErr != nil {
		return TraceReport{}, accErr
	}

	spans := c.Tracer.Spans()
	ids := trace.TraceIDs(spans)
	if len(ids) == 0 {
		return TraceReport{}, fmt.Errorf("no trace recorded")
	}
	root := trace.Root(spans, ids[0])
	if root == nil {
		return TraceReport{}, fmt.Errorf("trace %d has no root span", ids[0])
	}

	var tree, bd bytes.Buffer
	trace.WriteTree(&tree, spans, root.Trace)
	trace.WriteBreakdown(&bd, spans, root)
	return TraceReport{
		Scheme:     scheme.String(),
		MeasuredUS: us(rtt),
		RootUS:     root.Duration().Microseconds(),
		Spans:      len(trace.ByTrace(spans, root.Trace)),
		Tree:       tree.String(),
		Breakdown:  bd.String(),
	}, nil
}
