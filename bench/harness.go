package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/discovery"
	"repro/internal/future"
	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/realnet"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The isolated layer harness: one call into one layer's public function
// per iteration, timed from outside on the wall clock, with an
// allocation count beside every time. The rows do not depend on the
// workload, so a process measures them once per seed and every traced
// run of that seed reports the same figures.

// harnessRows lists the timed rows in the order they run; each yields
// NAME_ns (or NAME_us) and NAME_allocs.
var harnessRows = []string{
	"wire.encode", "wire.decode",
	"dataplane.encode_release", "dataplane.dispatch", "dataplane.ring_push_drain",
	"transport.reliable_rtt",
	"netsim.send_deliver", "netsim.event",
	"p4sim.exact_lookup", "p4sim.ternary_lookup", "p4sim.pipeline",
	"placement.home_of", "discovery.warm_resolve",
	"memproto.reassemble_64k",
	"coherence.local_read", "coherence.directory_lookup",
	"future.new_complete", "telemetry.hist_observe",
	"realnet.frame_rtt", "realnet.exec",
	"core.remote_read", "core.remote_write", "core.acq_rel",
}

// harnessUnit is the time unit of a row's first metric.
func harnessUnit(row string) string {
	if row == "realnet.frame_rtt" {
		return "us"
	}
	return "ns"
}

// timing is one row's result and when it ran, for the bench's own span.
type timing struct {
	row         string
	ns, allocs  float64
	iters       int // timed iterations; warmIters more ran before them
	start, stop time.Time
}

const (
	warmIters    = 512
	harnessIters = 20_000 // the floor on a row's timed iterations
)

// timeRow warms fn, then iterates it until it has ten times minIters
// iterations (200,000) or, for rows of a microsecond and more, at least
// minIters iterations and 200 ms.
func timeRow(row string, minIters int, fn func()) timing {
	for i := 0; i < warmIters; i++ {
		fn()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	iters, batch := 0, min(1024, minIters)
	for iters < 10*minIters && !(iters >= minIters && time.Since(t0) >= 200*time.Millisecond) {
		for i := 0; i < batch; i++ {
			fn()
		}
		iters += batch
	}
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	return timing{row: row, iters: iters, start: t0, stop: t1,
		ns:     float64(t1.Sub(t0).Nanoseconds()) / float64(iters),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(iters)}
}

// component is one line of the remote read's cost table: a layer row,
// how many times one read crosses it, and the product.
type component struct {
	row      string
	perOp    float64
	ns       float64
	estimate float64
}

type harnessResult struct {
	timings    []timing
	coldVT     map[string]float64 // scheme -> virtual µs of one cold read
	components []component
	unattrPct  float64
}

// must panics on a harness construction error: the harness only builds
// fixed, valid configurations, so an error here is a bug in it.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench harness: %v", err))
	}
}

// harnessKey is what a harness result depends on.
type harnessKey struct {
	seed     int64
	minIters int
}

var harnessDone = map[harnessKey]*harnessResult{}

func runHarness(seed int64, minIters int) (res *harnessResult, err error) {
	key := harnessKey{seed, minIters}
	if res = harnessDone[key]; res != nil {
		return res, nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		} else {
			harnessDone[key] = res
		}
	}()
	res = &harnessResult{coldVT: map[string]float64{}}
	rng := rand.New(rand.NewSource(seed))
	record := ioMean - ioSpread + rng.Intn(2*ioSpread+1)
	payload := make([]byte, record)
	sink := 0
	add := func(row string, fn func()) timing {
		t := timeRow(row, minIters, fn)
		res.timings = append(res.timings, t)
		return t
	}

	// wire, dataplane: a MsgMem frame with a record-sized payload.
	hdr := wire.Header{Type: wire.MsgMem, Src: 1, Dst: 3}
	fr, e := wire.Encode(&hdr, payload)
	must(e)
	var rxh wire.Header
	add("wire.encode", func() {
		_, e := wire.Encode(&hdr, payload)
		must(e)
	})
	add("wire.decode", func() { must(rxh.DecodeFrom(fr)) })
	add("dataplane.encode_release", func() {
		buf, e := dataplane.EncodeFrame(&hdr, payload)
		must(e)
		buf.Release()
	})
	mux := dataplane.NewMux()
	mux.Handle(wire.MsgMem, func(*wire.Header, []byte) bool { sink++; return true })
	add("dataplane.dispatch", func() { mux.Dispatch(&rxh, payload) })
	ring := dataplane.NewRing(64)
	add("dataplane.ring_push_drain", func() {
		ring.Push(fr, nil)
		ring.Pop()
	})

	// transport, netsim, p4sim: two endpoints and a raw host on one
	// switch, routes installed, so nothing floods or learns.
	sim := netsim.NewSim(seed)
	net := netsim.NewNetwork(sim)
	sw, e := p4sim.NewSwitch(net, "sw", 3, p4sim.SwitchConfig{})
	must(e)
	var hosts [3]*netsim.Host
	for i := range hosts {
		hosts[i], e = netsim.NewHost(net, fmt.Sprintf("h%d", i))
		must(e)
		must(net.Connect(hosts[i], 0, sw, i, netsim.DefaultLink))
		must(sw.InstallStationRoute(wire.StationID(i+1), i))
	}
	ea := transport.NewEndpoint(hosts[0], 1, transport.Config{})
	eb := transport.NewEndpoint(hosts[1], 2, transport.Config{})
	eb.SetHandler(func(h *wire.Header, p []byte) { must(eb.Respond(h, wire.Header{Type: wire.MsgMem}, p)) })
	hosts[2].SetOnFrame(func(netsim.Frame) { sink++ })
	onResp := func(_ *wire.Header, _ []byte, e error) { must(e) }
	// Simulator events each row's iteration processes, for the component
	// table: what a row already covers is not counted again.
	var events uint64
	perIter := func(t timing) float64 {
		n := float64(events) / float64(t.iters+warmIters)
		events = 0
		return n
	}
	rtt := add("transport.reliable_rtt", func() {
		_, e := ea.Request(wire.Header{Type: wire.MsgMem, Dst: 2}, payload, 0, onResp)
		must(e)
		events += sim.Run()
	})
	rttEvents := perIter(rtt)
	rttHops := float64(sw.Counters().FramesIn) / float64(rtt.iters+warmIters)
	// One link: a frame from the switch's port straight to the raw host.
	add("netsim.send_deliver", func() {
		net.Send(sw, 2, fr)
		sim.Run()
	})
	tick := func() { sink++ }
	add("netsim.event", func() {
		sim.Schedule(1, tick)
		sim.Run()
	})
	// One pipeline pass: parse, tables, emit; it includes the link send
	// and delivery the emit schedules.
	hopEvents := perIter(add("p4sim.pipeline", func() {
		sw.Recv(0, fr)
		events += sim.Run()
	}))

	// Sharded cluster: the tables as SchemeSharded compiles them, the
	// sharder, a local read, and the composed remote ops.
	cl, e := core.NewCluster(core.Config{Seed: seed, NumNodes: 3, Scheme: core.SchemeSharded})
	must(e)
	id, ok := cl.NewIDHomedAt(cl.Node(1).Station)
	if !ok {
		panic("bench harness: node 1 owns no shard")
	}
	obj, e := object.New(id, 1024, dataFOTCap)
	must(e)
	must(cl.Node(1).AdoptObjectLite(obj))
	cl.Run()
	stationHdr := wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2}
	add("p4sim.exact_lookup", func() {
		if _, ok := cl.Switches[0].StationTable().Lookup(&stationHdr); !ok {
			panic("bench harness: station table missed")
		}
	})
	objHdr := wire.Header{Type: wire.MsgMem, Src: 1, Dst: wire.StationAny, Object: id, Flags: wire.FlagRouteOnObject}
	add("p4sim.ternary_lookup", func() {
		if _, ok := cl.Switches[0].FilterTable().Lookup(&objHdr); !ok {
			panic("bench harness: shard filter table missed")
		}
	})
	add("placement.home_of", func() { sink += int(cl.Sharder.HomeOf(id)) })
	onRead := func(_ []byte, e error) { must(e) }
	add("coherence.local_read", func() { cl.Node(1).Coherence.ReadAtCB(id, ioOff, record, onRead) })

	dir := coherence.NewDirectory()
	gen := oid.NewSeededGenerator(seed)
	ids := make([]oid.ID, 4096)
	for i := range ids {
		ids[i] = gen.New()
		dir.Add(ids[i], wire.StationID(1+i%3))
	}
	k := 0
	add("coherence.directory_lookup", func() {
		sink += dir.Sharers(ids[k&4095])
		k++
	})
	onInt := func(int, error) { sink++ }
	add("future.new_complete", func() {
		f, complete := future.New[int]()
		f.Then(onInt)
		complete(1, nil)
	})
	hist := telemetry.NewHistogram()
	add("telemetry.hist_observe", func() {
		hist.Observe(float64(40 + k&127))
		k++
	})

	// memproto: a 64 KiB object fragmented as the simulator's links
	// (no MTU) fragment it, then reassembled.
	frags := memproto.Fragment(make([]byte, 64<<10), 1, 0)
	add("memproto.reassemble_64k", func() {
		var r memproto.Reassembler
		for i := range frags {
			if _, e := r.Add(&frags[i]); e != nil {
				panic(e)
			}
		}
	})

	// E2E cluster: a warm resolve is a destination-cache hit.
	e2e, cold := coldRead(core.SchemeE2E, seed, record)
	res.coldVT["e2e"] = cold
	onResolve := func(_ discovery.Result, e error) { must(e) }
	add("discovery.warm_resolve", func() { e2e.cl.Node(0).Resolver.Resolve(e2e.id, onResolve) })
	_, res.coldVT["controller"] = coldRead(core.SchemeController, seed, record)
	_, res.coldVT["sharded"] = coldRead(core.SchemeSharded, seed, record)

	// realnet: one frame to a peer socket and its echo back, and an
	// uncontended pass through the upcall lock.
	rn := realnet.NewCluster()
	la, e := rn.NewLink("a", 1)
	must(e)
	lb, e := rn.NewLink("b", 2)
	must(e)
	ping, e := wire.Encode(&wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2}, payload)
	must(e)
	pong, e := wire.Encode(&wire.Header{Type: wire.MsgMem, Src: 2, Dst: 1}, payload)
	must(e)
	back := make(chan struct{}, 1) // one frame is in flight at a time
	lb.SetOnFrame(func(backend.Frame) { lb.SendBuf(pong, nil) })
	la.SetOnFrame(func(backend.Frame) { back <- struct{}{} })
	rn.Start()
	send := func() { la.SendBuf(ping, nil) }
	// One timer for every iteration: a time.After each would be the
	// harness's own allocations in realnet.frame_rtt_allocs.
	lost := time.NewTimer(time.Second)
	add("realnet.frame_rtt", func() {
		la.Exec(send)
		lost.Reset(time.Second)
		select {
		case <-back:
		case <-lost.C:
			panic("bench harness: loopback frame lost")
		}
	})
	lost.Stop()
	nop := func() {}
	add("realnet.exec", func() { la.Exec(nop) })
	must(rn.Close())

	// Composed ops through the futures API, one outstanding, and the
	// read's own per-op counts for the component table.
	coh := cl.Node(0).Coherence
	data := make([]byte, record)
	onDone := func(_ struct{}, e error) { must(e) }
	onObj := func(_ *object.Object, e error) { must(e) }
	tel0 := cl.Telemetry()
	read := add("core.remote_read", func() {
		coh.ReadAt(id, ioOff, record).Then(onRead)
		events += cl.Sim.Run()
	})
	tel1 := cl.Telemetry()
	add("core.remote_write", func() {
		coh.WriteAt(id, ioOff, data).Then(onDone)
		cl.Run()
	})
	add("core.acq_rel", func() {
		coh.AcquireExclusive(id).Then(onObj)
		cl.Run()
		coh.Release(id).Then(onDone)
		cl.Run()
	})
	n := float64(read.iters + warmIters)
	hops := float64(tel1.Value("switch.frames_in")-tel0.Value("switch.frames_in"))/n - rttHops
	res.attribute([]component{
		// One request/response exchange with its acks across one switch:
		// encode, decode, dispatch, endpoint bookkeeping, four host sends.
		{row: "transport.reliable_rtt", perOp: 1},
		// The cluster's path crosses three switches, not one.
		{row: "p4sim.pipeline", perOp: hops},
		{row: "placement.home_of", perOp: 1},
		{row: "coherence.local_read", perOp: 1}, // the home serving the read
		{row: "future.new_complete", perOp: 1},
		// Events none of the rows above processes: timers and the like.
		{row: "netsim.event", perOp: float64(events)/n - rttEvents - hops*hopEvents},
	})
	return res, nil
}

// ns returns a finished row's time per iteration.
func (r *harnessResult) ns(row string) float64 {
	for _, t := range r.timings {
		if t.row == row {
			return t.ns
		}
	}
	return 0
}

// attribute predicts the remote read from the layer rows, after Brock et
// al.'s component-cost tables: each row's time multiplied by how often
// one read crosses that layer, the counts taken from the cluster's own
// counters over the timed read loop.
func (r *harnessResult) attribute(parts []component) {
	var sum float64
	for _, c := range parts {
		c.ns = r.ns(c.row)
		c.estimate = c.perOp * c.ns
		sum += c.estimate
		r.components = append(r.components, c)
	}
	read := r.ns("core.remote_read")
	r.unattrPct = 100 * math.Abs(sum-read) / read
}

// coldTarget is a cluster with one object homed at node 1 that node 0
// has read exactly once.
type coldTarget struct {
	cl *core.Cluster
	id oid.ID
}

// coldRead builds a three-node cluster under the scheme, homes one
// object at node 1, and times node 0's first read of it on the virtual
// clock: Fig. 2's per-scheme cold access.
func coldRead(scheme core.Scheme, seed int64, record int) (*coldTarget, float64) {
	cl, e := core.NewCluster(core.Config{Seed: seed, NumNodes: 3, Scheme: scheme})
	must(e)
	var id oid.ID
	if scheme == core.SchemeSharded {
		var ok bool
		if id, ok = cl.NewIDHomedAt(cl.Node(1).Station); !ok {
			panic("bench harness: node 1 owns no shard")
		}
	} else {
		id = cl.NewID()
	}
	obj, e := object.New(id, 1024, dataFOTCap)
	must(e)
	must(cl.Node(1).AdoptObject(obj))
	cl.Run() // announcements reach the controller before the read
	start := cl.Clock.Now()
	var done backend.Time
	cl.Node(0).Coherence.ReadAtCB(id, ioOff, record, func(_ []byte, e error) {
		must(e)
		done = cl.Clock.Now()
	})
	cl.Run()
	return &coldTarget{cl, id}, done.Sub(start).Microseconds()
}
