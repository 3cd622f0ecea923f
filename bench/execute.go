package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/trace"
)

// The SLO the client ladder climbs against: 99% of ops within a
// millisecond of their intended start, and (given by the closed loop
// itself) no op refused or left behind.
const (
	sloP99        = 1000 * backend.Microsecond
	ladderClients = 16 // the ladder stops here at the latest
)

// outcome is one execution of a workload: the passes it measured and
// the set-ups it took.
type outcome struct {
	spec    *spec
	passes  []*pass         // one, or one per ladder rung
	best    *pass           // the pass goodput and latency are read from
	clients int             // outstanding ops during best (closed loops)
	setups  []float64       // seconds each set-up took, at nominal host speed
	tracer  *trace.Recorder // best's recorder, when tracing was on
}

// execute sets the workload up, runs it at the given length and tears it
// down, then sets it up setUps-1 times more for setup_s. clients > 0 pins
// the ladder to one rung.
//
// A simulated workload runs on one P. The simulator is one goroutine, so
// the only use it has for a second core is the collector's, and on a
// shared two-core host whether that core is free changes by the minute:
// sim_bulk_acquire, which collects 18 times a second, read 10.3k
// wall_ops_s with it and 7.6-8.2k without (the same with one CPU pinned
// or two busy neighbours), a gap the host reference, one goroutine too,
// cannot see. On one P it read 7.3-9.4k through both. realnet's reader
// goroutines keep every P.
func execute(s *spec, seed int64, seconds float64, setUps int, tr trace.Config, clients int) (*outcome, error) {
	out := &outcome{spec: s}
	if s.clock() != "wall" {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	host().resize(seconds)
	if s.ladder && clients == 0 {
		return out, out.climb(seed, seconds, tr)
	}
	if s.ladder {
		seed = rungSeed(seed, clients)
	}
	speed := host().speed()
	timedSetUp := func() (*env, error) {
		e, dur, err := setUp(s, seed, s.coldPool(seconds), tr)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
		}
		after := host().speed()
		out.setups = append(out.setups, dur.Seconds()*(speed+after)/2)
		speed = after
		return e, nil
	}
	e, err := timedSetUp()
	if err != nil {
		return nil, err
	}
	out.tracer = e.cl.Tracer

	var p *pass
	switch {
	case s.clock() == "wall":
		out.clients = s.outstanding
		p, err = runClosedReal(s, e, seed, time.Duration(seconds*float64(time.Second)))
	case s.outstanding > 0 || clients > 0:
		out.clients = max(clients, s.outstanding)
		p = runClosedSim(s, e, seed, out.clients, s.ops(seconds))
	default:
		p = runOpenSim(s, e, seed, s.rate, backend.Duration(s.vsec*seconds*float64(backend.Second)))
	}
	e.cl.Close()
	if err != nil {
		return nil, err
	}
	p.d.release()
	out.passes, out.best = []*pass{p}, p
	// The other set-ups follow the measured pass, which so runs in a fresh
	// heap, as a traced run's passes do: after eight clusters built and
	// dropped, the simulator was 13% slower.
	for i := 1; i < setUps; i++ {
		e, err := timedSetUp()
		if err != nil {
			return nil, err
		}
		e.cl.Close()
		speed = host().speed()
	}
	return out, nil
}

// climb runs the client ladder: one fresh cluster per client count, up
// from one, until the SLO has been missed twice running. best is the
// last rung inside the SLO: the most clients the system serves within
// it, and what they get. (The rung with the highest goodput is a worse
// operating point to report: goodput is nearly flat around its peak, so
// which rung wins flips from seed to seed and drags latency with it.)
func (out *outcome) climb(seed int64, seconds float64, tr trace.Config) error {
	s := out.spec
	speed := host().speed()
	for k, misses := 1, 0; k <= ladderClients && misses < 2; k++ {
		e, dur, err := setUp(s, rungSeed(seed, k), s.coldPool(seconds), tr)
		if err != nil {
			return fmt.Errorf("%s: set-up of rung %d: %w", s.name, k, err)
		}
		after := host().speed()
		out.setups = append(out.setups, dur.Seconds()*(speed+after)/2)
		p := runClosedSim(s, e, rungSeed(seed, k), k, s.ops(seconds))
		e.cl.Close()
		speed = host().speed()
		out.passes = append(out.passes, p)
		// A finished rung keeps its numbers and lets go of its cluster, and
		// of its samples once it is not the best: heap_live_mb is the best
		// rung's live heap, not that of every rung climbed before it.
		p.d.release()
		if p.inSLO = p.meetsSLO(); !p.inSLO {
			p.d.dropSamples()
			misses++
			continue
		}
		if out.best != nil {
			out.best.d.dropSamples()
		}
		misses = 0
		out.best, out.clients = p, k
	}
	if out.best == nil {
		return fmt.Errorf("%s: no client count met the SLO", s.name)
	}
	return nil
}

// rungSeed gives each ladder rung its own cluster and schedule.
func rungSeed(seed int64, clients int) int64 { return seed + int64(clients)*1000003 }

// ops is the closed loop's op count for the requested run length.
func (s *spec) ops(seconds float64) int {
	return max(int(float64(s.closedOps)*seconds), 16*nSlices)
}

// coldPool sizes the never-discovered pool so cold ops do not run dry.
func (s *spec) coldPool(seconds float64) int {
	if s.mix.ColdFrac == 0 {
		return 0
	}
	ops := float64(s.ops(seconds))
	if s.rate > 0 {
		ops = s.rate * s.vsec * seconds
	}
	return int(ops*s.mix.ColdFrac*1.25) + 64
}

func (p *pass) seconds() float64 { return float64(p.window) / float64(backend.Second) }

// goodput is completed ops per second of the measure window.
func (p *pass) goodput() float64 { return float64(p.d.completed) / p.seconds() }

// latencies returns every counted completion's latency, ascending.
func (p *pass) latencies() []backend.Duration {
	var all []backend.Duration
	for _, l := range p.d.lat {
		all = append(all, l...)
	}
	return sortedCopy(all)
}

func (p *pass) meetsSLO() bool {
	lat := p.latencies()
	return len(lat) > 0 && p.d.failed == 0 && p.unfinished == 0 &&
		quantile(lat, 0.99) <= float64(sloP99)
}

// endToEnd derives the user-visible metrics. A percentile the sample
// does not support is left out.
func (out *outcome) endToEnd() map[string]metricValue {
	b := out.best
	var generated, completed, mallocs uint64
	var slices []float64
	for _, p := range out.passes {
		generated += p.generated
		completed += p.d.completed
		mallocs += p.mallocs
		slices = append(slices, p.slices...)
	}
	goodput := b.goodput()
	if len(b.sliceGoodput) > 0 {
		goodput = median(b.sliceGoodput)
	}
	vals := map[string]float64{
		"setup_s":         median(out.setups),
		"goodput_ops_s":   goodput,
		"goodput_mb_s":    goodput * float64(b.d.bytes) / float64(b.d.completed) / 1e6,
		"completed_share": float64(completed) / float64(generated),
		"wall_ops_s":      median(slices),
		"allocs_per_op":   float64(mallocs) / float64(completed),
		"heap_live_mb":    b.heapMB,
	}
	lat := b.latencies()
	for _, l := range []struct {
		name     string
		q        float64
		perSlice []float64
	}{{"lat_p50_us", 0.5, b.sliceP50}, {"lat_p99_us", 0.99, b.sliceP99}} {
		switch {
		case !supported(len(lat), l.q):
		case len(l.perSlice) > 0:
			vals[l.name] = median(l.perSlice) / 1e3
		default:
			vals[l.name] = quantile(lat, l.q) / 1e3
		}
	}
	res := make(map[string]metricValue, len(vals))
	for _, def := range endToEnd {
		v, ok := vals[def.name]
		if !ok {
			continue
		}
		mv := metricValue{Value: v, Unit: def.unit, Clock: def.clock}
		if def.clock == "workload" {
			mv.Clock = out.spec.clock()
		}
		if strings.HasPrefix(def.name, "lat_") {
			mv.Samples = len(lat)
		}
		res[def.name] = mv
	}
	return res
}

// totals returns the ops attempted and the ops that failed or never
// finished, over every pass.
func (out *outcome) totals() (attempted, failed uint64) {
	for _, p := range out.passes {
		attempted += p.generated
		failed += p.d.failed + p.unfinished
	}
	return attempted, failed
}

// check returns what is wrong with the outputs, one line each; empty
// means every output was verified.
func (out *outcome) check() []string {
	var bad []string
	for i, p := range out.passes {
		d := p.d
		if d.completed == 0 {
			bad = append(bad, fmt.Sprintf("pass %d: no op completed, first failure: %v", i, d.firstFail))
		}
		if d.wrong > 0 {
			bad = append(bad, fmt.Sprintf("pass %d: %d outputs did not match, first: %v", i, d.wrong, d.firstWrong))
		}
		if p.bufs != 0 {
			bad = append(bad, fmt.Sprintf("pass %d: dataplane.LiveBufs() is %+d from its baseline after the drain", i, p.bufs))
		}
		if p.generated != d.completed+d.failed+p.unfinished {
			bad = append(bad, fmt.Sprintf("pass %d: generated %d != completed %d + failed %d + unfinished %d",
				i, p.generated, d.completed, d.failed, p.unfinished))
		}
	}
	return bad
}
