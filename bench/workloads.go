package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// spec describes one workload. The amount of work is a fixed function
// of -seconds, calibrated on a 2-core box so the measured phase lasts
// about that long; for a given (seed, seconds) every virtual-clock
// result therefore repeats exactly, and a simulator speed-up shows as
// a shorter run with identical simulated statistics.
type spec struct {
	name, why string
	backend   core.BackendKind
	scheme    core.Scheme
	linkBps   int64
	objects   int
	objSize   int
	// sizeSpread makes each object's size objSize ± sizeSpread bytes.
	sizeSpread int
	keys       workload.KeyDist
	mix        workload.Mix

	// Closed loop: outstanding ops re-issued from completion callbacks,
	// no think time. Sim runs closedOps ops per requested second; the
	// realnet run lasts the requested seconds on the wall clock.
	outstanding int
	closedOps   int

	// Open loop: Poisson arrivals at rate ops per virtual second for
	// vsec virtual seconds per requested second.
	rate float64
	vsec float64

	// ladder runs the closed loop once per client count, from one up,
	// each on a fresh cluster (see outcome.climb).
	ladder bool
}

// clock names the clock the workload's latency and goodput are on.
func (s *spec) clock() string {
	if s.backend == core.BackendRealnet {
		return "wall"
	}
	return "virtual"
}

var mixDefault = workload.Mix{ReadPct: 80, WritePct: 14, AcquireReleasePct: 4, InvokePct: 2, ColdFrac: 0.02}

const (
	mixLinkBps     = 100_000_000
	mixOutstanding = 512
	mixWarmup      = 10 * backend.Millisecond
)

var specs = []*spec{
	{
		name:   "sim_read_hot",
		why:    "closed loop of small remote reads, no queueing, no discovery misses: the per-frame hot path is the whole cost",
		scheme: core.SchemeSharded, linkBps: 10_000_000_000, objects: 4096, objSize: 512,
		keys: workload.KeyZipf, mix: workload.Mix{ReadPct: 100}, outstanding: 4, closedOps: 60_000,
	},
	{
		name:   "sim_mix_steady",
		why:    "open loop below the knee on slow links: queueing, 2% cold discovery, writes and acquires beside reads set the tail",
		scheme: core.SchemeE2E, linkBps: mixLinkBps, objects: 4096, objSize: 512,
		keys: workload.KeyZipf, mix: mixDefault, rate: 12_000, vsec: 4,
	},
	{
		name:   "sim_mix_ladder",
		why:    "same mix, closed loop, one client more per rung until the latency SLO breaks: the saturation knee and the goodput at it",
		scheme: core.SchemeE2E, linkBps: mixLinkBps, objects: 4096, objSize: 512,
		keys: workload.KeyZipf, mix: mixDefault, ladder: true, closedOps: 2_000,
	},
	{
		name:   "sim_mix_overload",
		why:    "same mix at twice the clients of the knee: retransmit timers fire into queues, the only workload where flow control does most of the work",
		scheme: core.SchemeE2E, linkBps: mixLinkBps, objects: 4096, objSize: 512,
		keys: workload.KeyZipf, mix: mixDefault, outstanding: 16, closedOps: 25_000,
	},
	{
		// Uniform keys: an exclusive acquire is never served from a
		// cache, so popularity changes nothing but how much the handful
		// of hot objects' sizes would sway a seed's results.
		name:   "sim_bulk_acquire",
		why:    "closed loop moving 64 KiB objects out and back: fragmentation, reassembly and copies do the work, per-frame dispatch little",
		scheme: core.SchemeE2E, linkBps: 10_000_000_000, objects: 256, objSize: 64 << 10, sizeSpread: 8 << 10,
		keys: workload.KeyUniform, mix: workload.Mix{AcquireReleasePct: 100}, outstanding: 4, closedOps: 4_000,
	},
	{
		name:    "real_rw_closed",
		why:     "closed loop of reads and writes over loopback UDP (no real link) on the wall clock: sockets, reader goroutines and the upcall lock do the work",
		backend: core.BackendRealnet, scheme: core.SchemeE2E, objects: 4096, objSize: 512,
		keys: workload.KeyZipf, mix: workload.Mix{ReadPct: 70, WritePct: 30}, outstanding: 4,
	},
}

func findSpec(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// env is one built, populated and warmed cluster.
type env struct {
	cl  *core.Cluster
	pop *population
}

// setUp builds the workload's cluster, populates and warms it, and
// reports how long that took.
func setUp(s *spec, seed int64, cold int, tr trace.Config) (*env, time.Duration, error) {
	t0 := time.Now()
	cl, err := core.NewCluster(core.Config{
		Backend:        s.backend,
		Seed:           seed,
		NumNodes:       3,
		Scheme:         s.scheme,
		LinkBitsPerSec: s.linkBps,
		Trace:          tr,
	})
	if err != nil {
		return nil, 0, err
	}
	pop, err := populate(cl, s, seed, cold)
	if err != nil {
		cl.Close()
		return nil, 0, err
	}
	return &env{cl: cl, pop: pop}, time.Since(t0), nil
}

// pass is everything one measured phase produced.
type pass struct {
	d *driver

	generated  uint64 // ops the arrival process produced in the window
	queued     uint64 // of those, held in the runner's backlog first
	unfinished uint64 // in flight + backlog after the drain

	window backend.Duration // measure window on the workload's clock
	inSLO  bool             // ladder rungs: whether the pass met the SLO
	wall   time.Duration    // host time of the measured phase, drain included, the bench's own (reference chunks, output digests) not
	speed  float64          // mean host speed over the phase's slices (see hostRef)
	slices []float64        // generated ops per nominal host second, per slice
	events uint64           // simulator events processed

	// Wall-clock workloads only: each slice's goodput and latency
	// percentiles, so that a disturbed stretch of host time moves a few
	// slices and not the run's figure, which is the median over slices.
	sliceGoodput, sliceP50, sliceP99 []float64

	tel     map[string]float64 // counter deltas over the phase
	telOps  uint64             // ops that finished while tel was counting
	mallocs uint64
	allocB  uint64
	gcN     uint32
	gcPause time.Duration
	heapMB  float64
	bufs    int64 // dataplane.LiveBufs() after the drain minus before the first op
}

// gauge is a resource snapshot taken when a measured phase begins.
type gauge struct {
	ms   runtime.MemStats
	tel  telemetry.Snapshot
	done uint64 // ops finished so far, counted or not
	t    time.Time
	// The bench's own time so far, which is not the phase's: reference
	// chunks (host().spent) and output digests (driver.checking).
	ref, checking time.Duration
}

// snapshot reads the cluster's counters. Under realnet it must run while
// no op is in flight: Telemetry takes the upcall lock for the socket
// counters (so it cannot run inside Exec) and reads the rest without it.
func snapshot(d *driver) (telemetry.Snapshot, uint64) {
	return d.cl.Telemetry(), d.doneAll
}

// takeGauge snapshots memory and, on the simulator, the counters; a
// realnet caller fills tel and done from a snapshot taken before its
// first op.
func takeGauge(d *driver) *gauge {
	g := &gauge{}
	if d.cl.Sim != nil {
		g.tel, g.done = snapshot(d)
	}
	runtime.GC()
	runtime.ReadMemStats(&g.ms)
	g.t, g.ref, g.checking = time.Now(), host().spent, d.checking
	return g
}

// end fills the pass's resource deltas since the gauge was taken.
func (p *pass) end(before *gauge) {
	p.wall = time.Since(before.t) - (host().spent - before.ref) - (p.d.checking - before.checking)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - before.ms.Mallocs
	p.allocB = ms.TotalAlloc - before.ms.TotalAlloc
	p.gcN = ms.NumGC - before.ms.NumGC
	p.gcPause = time.Duration(ms.PauseTotalNs - before.ms.PauseTotalNs)
	after, done := snapshot(p.d)
	p.telOps = done - before.done
	p.tel = make(map[string]float64, after.Len())
	for _, n := range after.Names() {
		p.tel[n] = float64(after.Value(n)) - float64(before.tel.Value(n))
	}
	// Live heap with the cluster still reachable: what a long run holds.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc)/(1<<20) - host().heapMB
	runtime.KeepAlive(p.d)
}

// nSlices is how many slices a measured phase is cut into. A ladder rung
// is a twelfth of a run and has a quarter of the slices: all rungs' slices
// together give the ladder's wall_ops_s.
const nSlices = 20

func (s *spec) slices() int {
	if s.ladder {
		return nSlices / 4
	}
	return nSlices
}

// slicer cuts a measured phase into slices, times a chunk of the host
// reference between them, and states each slice's rate as it would read
// on a host of nominal speed.
type slicer struct {
	probe  func() float64 // times one chunk: the host's speed now
	d      *driver        // its checking time is not the slices'
	before float64        // host speed by the chunk before the open slice
	start  time.Time      // when the open slice's work began
	own    time.Duration  // d.checking when it began
	secs   []float64      // per slice: host seconds as the clock read them,
	speeds []float64      // the host's speed,
	rates  []float64      // and units of work per nominal host second
}

// openSlicer times the first chunk and opens the first slice. Its storage
// is sized here so that cuts allocate nothing inside the measured phase.
func openSlicer(probe func() float64, d *driver) *slicer {
	sl := &slicer{probe: probe, d: d, own: d.checking}
	sl.secs, sl.speeds, sl.rates = make([]float64, 0, nSlices), make([]float64, 0, nSlices), make([]float64, 0, nSlices)
	sl.before, sl.start = probe(), time.Now()
	return sl
}

// cut closes the open slice, in which units of work were done, and opens
// the next. The chunk it times serves both.
func (sl *slicer) cut(units float64) {
	secs := (time.Since(sl.start) - (sl.d.checking - sl.own)).Seconds()
	sl.own = sl.d.checking
	after := sl.probe()
	speed := (sl.before + after) / 2
	sl.secs = append(sl.secs, secs)
	sl.speeds = append(sl.speeds, speed)
	sl.rates = append(sl.rates, units/secs/speed)
	sl.before, sl.start = after, time.Now()
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// far is a time no run reaches.
const far = backend.Time(1 << 62)

// runClosedSim runs n ops closed-loop with k outstanding on the
// simulator and drains it.
func runClosedSim(s *spec, e *env, seed int64, k, n int) *pass {
	cl := e.cl
	bufs0 := dataplane.LiveBufs()
	d := newDriver(cl, e.pop, n)
	d.winStart, d.winEnd = far, far
	gen := workload.NewGen(seed, s.mix, workload.KeyConfig{Dist: s.keys, Population: s.objects})
	p := &pass{d: d, generated: uint64(n)}

	sliceOps := max(n/s.slices(), 1)
	var sl *slicer
	toIssue := 0
	slots := make([]func(error), k)
	issue := func(slot int) {
		if toIssue == 0 {
			return
		}
		toIssue--
		now := cl.Clock.Now()
		op := gen.Next(now)
		d.issue(op.Kind, slotObject(op.Key, slot, k, s.objects), op.Cold, now, slots[slot])
	}
	for i := range slots {
		i := i
		slots[i] = func(error) {
			if done := int(d.completed + d.failed); done > 0 && done%sliceOps == 0 && len(sl.rates) < s.slices() {
				sl.cut(float64(sliceOps))
			}
			issue(i)
		}
	}
	run := func(count int) uint64 {
		toIssue = count
		for i := 0; i < k; i++ {
			issue(i)
		}
		return cl.Sim.Run()
	}

	// Warm-up, uncounted: fills pools, free lists and the event heap.
	run(max(n/20, 4*k))

	d.winStart = 0
	g := takeGauge(d)
	sl = openSlicer(host().speed, d)
	t0 := cl.Clock.Now()
	p.events = run(n)
	p.window = d.lastDone.Sub(t0)
	p.end(g)
	p.slices, p.speed = sl.rates, mean(sl.speeds)
	p.unfinished = uint64(d.inflight)
	p.bufs = dataplane.LiveBufs() - bufs0
	return p
}

// slotObject maps a key to an object owned by the slot: each closed-loop
// slot owns the objects congruent to it, so two outstanding acquires
// never contend for one object.
func slotObject(key, slot, slots, objects int) int {
	if idx := key - key%slots + slot; idx < objects {
		return idx
	}
	return slot
}

// runOpenSim offers Poisson arrivals at rate for window of virtual time
// through workload.Runner, then drains every in-flight and queued op.
func runOpenSim(s *spec, e *env, seed int64, rate float64, window backend.Duration) *pass {
	cl := e.cl
	bufs0 := dataplane.LiveBufs()
	expect := int(rate*float64(window)/float64(backend.Second)*1.1) + 1024
	d := newDriver(cl, e.pop, expect)
	run := workload.New(cl.Clock, d, workload.Config{
		Seed:           seed,
		Arrival:        workload.ArrivalConfig{Kind: workload.ArrivalPoisson, RatePerSec: rate},
		Mix:            s.mix,
		Keys:           workload.KeyConfig{Dist: s.keys, Population: s.objects},
		Warmup:         mixWarmup,
		Measure:        window,
		MaxOutstanding: mixOutstanding,
	})
	p := &pass{d: d, window: window}
	start := cl.Clock.Now()
	d.winStart = start.Add(mixWarmup)
	d.winEnd = d.winStart.Add(window)
	run.Start()
	cl.Sim.RunUntil(d.winStart)

	g := takeGauge(d)
	sl := openSlicer(host().speed, d)
	lastGen := uint64(0)
	for i := 1; i <= nSlices; i++ {
		p.events += cl.Sim.RunUntil(d.winStart.Add(window * backend.Duration(i) / nSlices))
		gen := run.Result().Counters.OpsGenerated
		sl.cut(float64(gen - lastGen))
		lastGen = gen
	}
	p.events += cl.Sim.Run()
	p.end(g)
	p.slices, p.speed = sl.rates, mean(sl.speeds)

	c := run.Result().Counters
	p.generated, p.queued = c.OpsGenerated, c.OpsQueued
	p.unfinished = uint64(d.inflight) + c.OpsGenerated - c.OpsIssued
	p.bufs = dataplane.LiveBufs() - bufs0
	return p
}

// runClosedReal runs the closed loop over loopback UDP for window of
// wall time, after a warm-up. The window is nSlices bursts, each run until
// its last op is back, with a chunk of the host references timed in the
// quiet between two bursts.
func runClosedReal(s *spec, e *env, seed int64, window time.Duration) (*pass, error) {
	cl := e.cl
	bufs0 := dataplane.LiveBufs()
	d := newDriver(cl, e.pop, int(window.Seconds()*120_000)+1024)
	gen := workload.NewGen(seed, s.mix, workload.KeyConfig{Dist: s.keys, Population: s.objects})
	p := &pass{d: d, window: backend.Duration(window)}
	sockets, err := newNetRef()
	if err != nil {
		return nil, fmt.Errorf("%s: socket reference: %w", s.name, err)
	}
	defer sockets.close()

	k := s.outstanding
	active := 0
	idle := make(chan struct{}, 1) // one send per burst, received before the next burst begins
	slots := make([]func(error), k)
	issue := func(slot int) {
		now := cl.Clock.Now()
		if now >= d.winEnd {
			if active--; active == 0 {
				idle <- struct{}{}
			}
			return
		}
		op := gen.Next(now)
		d.issue(op.Kind, slotObject(op.Key, slot, k, s.objects), false, now, slots[slot])
	}
	for i := range slots {
		i := i
		slots[i] = func(error) { issue(i) }
	}
	// burst issues ops for dur and returns when the last is back. Only a
	// counted burst's ops enter the driver's figures.
	burst := func(dur time.Duration, counted bool) error {
		cl.Exec(func() {
			now := cl.Clock.Now()
			d.winStart, d.winEnd = now, now.Add(backend.Duration(dur))
			if !counted {
				d.winStart = far
			}
			active = k
			for i := 0; i < k; i++ {
				issue(i)
			}
		})
		select {
		case <-idle:
			return nil
		case <-time.After(dur + 5*time.Second):
			return fmt.Errorf("%s: ops still in flight 5 s after their burst closed", s.name)
		}
	}

	tel0, done0 := snapshot(d)
	if err := burst(min(500*time.Millisecond, window/4), false); err != nil {
		return nil, err
	}
	g := takeGauge(d)
	g.tel, g.done = tel0, done0
	// Between bursts no op is in flight, so the driver's counters are
	// read here without the upcall lock.
	type mark struct {
		attempted, completed uint64
		samples              [numKinds]int
	}
	marks := make([]mark, 1, nSlices+1)
	sl := openSlicer(func() float64 { return math.Sqrt(host().speed() * sockets.speed()) }, d)
	for i := 0; i < nSlices; i++ {
		if err := burst(window/nSlices, true); err != nil {
			return nil, err
		}
		m := mark{attempted: d.attempted, completed: d.completed}
		for k := range d.lat {
			m.samples[k] = len(d.lat[k])
		}
		sl.cut(float64(m.attempted - marks[i].attempted))
		marks = append(marks, m)
	}
	p.end(g)
	if sockets.err != nil {
		return nil, fmt.Errorf("%s: socket reference: %w", s.name, sockets.err)
	}
	p.slices, p.speed = sl.rates, mean(sl.speeds)
	for i, speed := range sl.speeds {
		a, b := marks[i], marks[i+1]
		p.sliceGoodput = append(p.sliceGoodput, float64(b.completed-a.completed)/sl.secs[i]/speed)
		var lat []backend.Duration
		for k := range d.lat {
			lat = append(lat, d.lat[k][a.samples[k]:b.samples[k]]...)
		}
		if lat = sortedCopy(lat); supported(len(lat), 0.99) {
			p.sliceP50 = append(p.sliceP50, quantile(lat, 0.5)*speed)
			p.sliceP99 = append(p.sliceP99, quantile(lat, 0.99)*speed)
		}
	}
	p.generated, p.unfinished = d.attempted, uint64(d.inflight)
	// The last acks may still be on their way through the kernel.
	for i := 0; i < 50 && dataplane.LiveBufs() != bufs0; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	p.bufs = dataplane.LiveBufs() - bufs0
	return p, nil
}
