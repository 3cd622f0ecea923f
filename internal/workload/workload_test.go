package workload

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/wire"
)

func TestGenDeterministic(t *testing.T) {
	mix := Mix{ColdFrac: 0.05}
	keys := KeyConfig{Dist: KeyZipf, Population: 64}
	a := NewGen(7, mix, keys)
	b := NewGen(7, mix, keys)
	for i := 0; i < 2000; i++ {
		at := netsim.Time(i * 1000)
		oa, ob := a.Next(at), b.Next(at)
		if oa != ob {
			t.Fatalf("op %d diverged: %+v vs %+v", i, oa, ob)
		}
		if oa.Index != uint64(i) {
			t.Fatalf("op %d has index %d", i, oa.Index)
		}
	}
	c := NewGen(8, mix, keys)
	diff := 0
	for i := 0; i < 200; i++ {
		if a.Next(0) != c.Next(0) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenMixShares(t *testing.T) {
	g := NewGen(1, Mix{}, KeyConfig{})
	var kinds [numOpKinds]int
	const n = 20000
	for i := 0; i < n; i++ {
		kinds[g.Next(0).Kind]++
	}
	// Default mix is 80/14/4/2; allow generous slack.
	if f := float64(kinds[OpRead]) / n; f < 0.75 || f > 0.85 {
		t.Fatalf("read share %.3f, want ~0.80", f)
	}
	if kinds[OpWrite] == 0 || kinds[OpAcquireRelease] == 0 || kinds[OpInvoke] == 0 {
		t.Fatalf("kind counts %v: every kind should appear", kinds)
	}
}

func TestGenAllocs(t *testing.T) {
	g := NewGen(1, Mix{ColdFrac: 0.1}, KeyConfig{Dist: KeyZipf})
	g.Next(0)
	if n := testing.AllocsPerRun(1000, func() { g.Next(12345) }); n > 1 {
		t.Fatalf("Next allocates %v/op, want <=1", n)
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewGen(3, Mix{}, KeyConfig{Dist: KeyZipf, Population: 32, ZipfS: 1.1})
	counts := make([]int, 32)
	for i := 0; i < 20000; i++ {
		counts[g.Next(0).Key]++
	}
	if counts[0] <= counts[31]*4 {
		t.Fatalf("zipf not skewed: key0=%d key31=%d", counts[0], counts[31])
	}
	for k, c := range counts {
		if c == 0 {
			t.Fatalf("key %d never drawn", k)
		}
	}
}

// fakeTarget completes ops after a configurable service time on the
// virtual clock.
type fakeTarget struct {
	sim         *netsim.Sim
	service     func(op Op) netsim.Duration
	inflight    int
	maxInflight int
}

func (f *fakeTarget) Issue(op Op, done func(error)) {
	f.inflight++
	if f.inflight > f.maxInflight {
		f.maxInflight = f.inflight
	}
	f.sim.Schedule(f.service(op), func() {
		f.inflight--
		done(nil)
	})
}

func TestOpenLoopRate(t *testing.T) {
	sim := netsim.NewSim(1)
	tgt := &fakeTarget{sim: sim,
		service: func(Op) netsim.Duration { return netsim.Microsecond }}
	r := New(sim, tgt, Config{
		Seed:    3,
		Arrival: ArrivalConfig{Kind: ArrivalOpen, RatePerSec: 100_000},
		Warmup:  netsim.Millisecond,
		Measure: 10 * netsim.Millisecond,
	})
	r.Start()
	sim.Run()
	res := r.Result()
	// 100k ops/s over a 10ms window = 1000 ops, fixed spacing.
	if res.Counters.OpsGenerated != 1000 {
		t.Fatalf("generated %d, want 1000", res.Counters.OpsGenerated)
	}
	if res.Counters.OpsCompleted != 1000 {
		t.Fatalf("completed %d, want 1000", res.Counters.OpsCompleted)
	}
	if g := res.GoodputPerSec(); g < 99_000 || g > 101_000 {
		t.Fatalf("goodput %.0f, want ~100000", g)
	}
}

// TestCoordinatedOmissionStall is the regression test for the
// package's reason to exist: a 1ms server stall must surface in the
// recorded tail even though the runner could only issue one op at a
// time. Ops that were *due* during the stall record the wait they
// actually suffered, measured from their intended start.
func TestCoordinatedOmissionStall(t *testing.T) {
	sim := netsim.NewSim(1)
	stallStart := netsim.Time(2 * netsim.Millisecond)
	stalled := false
	tgt := &fakeTarget{sim: sim}
	tgt.service = func(Op) netsim.Duration {
		if !stalled && sim.Now() >= stallStart {
			stalled = true
			return netsim.Millisecond // one 1ms stall
		}
		return 5 * netsim.Microsecond
	}
	r := New(sim, tgt, Config{
		Seed:           4,
		Arrival:        ArrivalConfig{Kind: ArrivalOpen, RatePerSec: 50_000},
		Measure:        10 * netsim.Millisecond,
		MaxOutstanding: 1,
	})
	r.Start()
	sim.Run()
	res := r.Result()
	if res.Counters.OpsQueued == 0 {
		t.Fatal("stall should have queued ops behind the cap")
	}
	// ~50 ops were due during the 1ms stall; intended-start accounting
	// must spread the stall across them: the max is ~1ms and well over
	// 10 samples exceed 100µs. Issue-time accounting would report a
	// single slow op and a clean tail.
	if res.Latency.Max < 900 {
		t.Fatalf("max latency %vµs, want >=900 (the stall)", res.Latency.Max)
	}
	over := 0
	for _, b := range r.Hist().Buckets() {
		if b.Low >= 100 {
			over += int(b.Count)
		}
	}
	if over < 10 {
		t.Fatalf("only %d samples over 100µs; stall was coordinated away", over)
	}
	if res.Latency.P999 < 400 {
		t.Fatalf("P999 = %vµs, want inflated by the stall", res.Latency.P999)
	}
}

func TestRunnerTelemetry(t *testing.T) {
	sim := netsim.NewSim(1)
	tgt := &fakeTarget{sim: sim,
		service: func(Op) netsim.Duration { return netsim.Microsecond }}
	r := New(sim, tgt, Config{
		Seed:    5,
		Arrival: ArrivalConfig{Kind: ArrivalOpen, RatePerSec: 10_000},
		Measure: 5 * netsim.Millisecond,
	})
	r.Start()
	sim.Run()
	c := r.Result().Counters
	if c.OpsGenerated == 0 {
		t.Fatalf("nothing generated: %+v", c)
	}
	if c.OpsCompleted != c.OpsGenerated || c.OpsIssued != c.OpsGenerated || c.OpsFailed != 0 {
		t.Fatalf("generated, issued and completed disagree: %+v", c)
	}
}

// syncTarget completes every op before Issue returns.
type syncTarget struct{}

func (syncTarget) Issue(_ Op, done func(error)) { done(nil) }

// TestRunnerIssueDoesNotAllocate: the runner adds nothing to an op's
// allocations — against a target that completes at once, issuing an op
// and recording its completion allocates nothing.
func TestRunnerIssueDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only bind without -race")
	}
	r := New(netsim.NewSim(1), syncTarget{}, Config{Seed: 6, Measure: netsim.Millisecond})
	r.Start()
	issue := func() { r.issue(Op{}) }
	issue()
	if allocs := testing.AllocsPerRun(100, issue); allocs != 0 {
		t.Fatalf("issue+complete allocates %v/op, want 0", allocs)
	}
	if c := r.Result().Counters; c.OpsIssued != 102 || c.OpsCompleted != 102 || r.outstanding != 0 {
		t.Fatalf("counters %+v, %d outstanding; want 102 issued and completed, none outstanding", c, r.outstanding)
	}
}

func TestKneeDetection(t *testing.T) {
	pt := func(generated, completed uint64, p99 float64) Point {
		return Point{Generated: generated, Completed: completed, P99US: p99}
	}
	k := detectKnee([]Point{
		pt(100, 100, 50), pt(200, 199, 60), pt(400, 210, 80),
	})
	if k.Index != 1 || k.Reason != "goodput_plateau" {
		t.Fatalf("goodput knee = %+v", k)
	}
	k = detectKnee([]Point{
		pt(100, 100, 50), pt(200, 199, 60), pt(400, 390, 500),
	})
	if k.Index != 1 || k.Reason != "p99_blowup" {
		t.Fatalf("p99 knee = %+v", k)
	}
	k = detectKnee([]Point{pt(100, 100, 50), pt(200, 195, 60)})
	if k.Index != 1 || k.Reason != "not_reached" {
		t.Fatalf("unreached knee = %+v", k)
	}
	k = detectKnee([]Point{pt(100, 10, 50)})
	if k.Index != -1 || k.Reason != "goodput_plateau" {
		t.Fatalf("first-point knee = %+v", k)
	}
}

func BenchmarkWorkload_Gen(b *testing.B) {
	g := NewGen(1, Mix{ColdFrac: 0.02}, KeyConfig{Dist: KeyZipf, Population: 128})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Next(netsim.Time(i))
	}
}

func BenchmarkWorkload_Observe(b *testing.B) {
	rec := newRecorder(0, netsim.Time(1<<60))
	op := Op{Intended: 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.observe(op, netsim.Time(100+i%1000))
	}
}

// e2eCoherenceOps is the end-to-end hot-path alloc gate: one remote
// coherence read and one remote write over the sharded scheme —
// generator to wire to switch pipeline to home and back — allocate only
// what the caller keeps. A write allocates its Future; a read its
// Future and the response data copy, or only the copy through ReadAtCB,
// the callback form bench's harness times. A non-nil observe is
// installed on every node first, and the floors are the same. It
// returns the callback read and the write, warmed and gated.
func e2eCoherenceOps(tb testing.TB, observe coherence.Observer) (readOnce, writeOnce func()) {
	cl, err := core.NewCluster(core.Config{Seed: 42, NumNodes: 3, Scheme: core.SchemeSharded})
	if err != nil {
		tb.Fatal(err)
	}
	reader := cl.Node(0)
	var obj oid.ID
	for _, n := range cl.Nodes[1:] {
		if id, ok := cl.NewIDHomedAt(n.Station); ok {
			o, err := object.New(id, 1024, 4)
			if err != nil {
				tb.Fatal(err)
			}
			if err := n.AdoptObjectLite(o); err != nil {
				tb.Fatal(err)
			}
			obj = id
			break
		}
	}
	if obj == (oid.ID{}) {
		tb.Fatal("no non-reader station owns a shard")
	}
	cl.Run()
	if observe != nil {
		for _, n := range cl.Nodes {
			n.Coherence.AddObserver(observe)
		}
	}
	off := uint64(object.HeaderSize + object.FOTEntrySize*4)
	wdata := make([]byte, 64)
	var done bool
	var opErr error
	onRead := func(_ []byte, err error) { opErr, done = err, true }
	onWrite := func(_ struct{}, err error) { opErr, done = err, true }
	step := func(what string) {
		cl.Run()
		if !done || opErr != nil {
			tb.Fatalf("%s: done=%v err=%v", what, done, opErr)
		}
		done = false
	}
	readOnce = func() {
		reader.Coherence.ReadAtCB(obj, off, 64, onRead)
		step("read")
	}
	writeOnce = func() {
		reader.Coherence.WriteAt(obj, off, wdata).Then(onWrite)
		step("write")
	}
	readFuture := func() {
		reader.Coherence.ReadAt(obj, off, 64).Then(onRead)
		step("read")
	}
	for i := 0; i < 32; i++ {
		readOnce()
		writeOnce()
	}
	for _, g := range []struct {
		what string
		op   func()
		max  float64
	}{
		{"remote read (callback)", readOnce, 1},
		{"remote read (future)", readFuture, 2},
		{"remote write (future)", writeOnce, 1},
	} {
		if allocs := testing.AllocsPerRun(100, g.op); allocs > g.max {
			tb.Fatalf("%s allocates %v/op, want <=%v", g.what, allocs, g.max)
		}
	}
	return readOnce, writeOnce
}

// e2eAcquireRelease64K is the bulk path's alloc gate: one exclusive
// acquire plus the release of a 64 KiB object over the E2E scheme
// (futures API), in both of bulkLoop's forms, must stay within 1 KiB
// per op. With a stale copy — two fragments out, two back — the grant
// lands in the copy the acquire replaces and the release in a home
// scratch region, so a first-touch region anywhere costs 64 KiB and
// fails the byte bound; the op stays within 8 allocs: the two Futures,
// the grant's Object and its store entry, and the home's write's four
// (its Future, the directory walk's closure, the sharer list and the
// invalidate's callback). With a current copy the grant is data-less,
// and the op stays within the acquire+release's 4. It returns the
// stale op, warmed and gated.
func e2eAcquireRelease64K(tb testing.TB) (once func()) {
	for _, g := range []struct {
		stale bool
		max   float64
	}{{false, 4}, {true, 8}} {
		once, _, _ = bulkLoop(tb, 64<<10, g.stale)
		if allocs := testing.AllocsPerRun(100, once); allocs > g.max {
			tb.Fatalf("acquire+release of 64 KiB (stale copy: %v) allocates %v/op, want <=%v", g.stale, allocs, g.max)
		}
		// On one P, as AllocsPerRun counts: a frame buffer put back in
		// one P's private pool slot is not found by a Get on another, and
		// the pool's 64 KiB refill (656 B/op over the loop) is the
		// scheduler's, not the op's.
		procs := runtime.GOMAXPROCS(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			once()
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		if b := (after.TotalAlloc - before.TotalAlloc) / 100; b > 1<<10 {
			tb.Fatalf("acquire+release of 64 KiB (stale copy: %v) allocates %d B/op, want <=1 KiB", g.stale, b)
		}
	}
	return once
}

// bulkLoop builds the bulk gate's cluster — node 1 homes an object of
// size bytes (64 KiB in the gates), node 0 acquires it exclusively,
// changes one byte, so that the release carries the object, and
// releases it — and returns one such op, run 32 times to warm, and the
// home's object. Node 0 keeps its released copy, labeled the home's new
// version. Unless stale, its next acquire finds that copy current and
// is granted without data. When stale, the home writes a byte in the
// instant the acquire leaves, so the write's invalidate crosses the
// acquire: node 0 still holds its copy, and the home still lists it, at
// the version before the write, so the grant carries the object into
// the region of the copy the acquire replaces.
func bulkLoop(tb testing.TB, size int, stale bool) (once func(), cl *core.Cluster, o *object.Object) {
	cl, err := core.NewCluster(core.Config{Seed: 42, NumNodes: 3, Scheme: core.SchemeE2E})
	if err != nil {
		tb.Fatal(err)
	}
	o, err = object.New(cl.NewID(), size, 4)
	if err != nil {
		tb.Fatal(err)
	}
	if err := cl.Node(1).AdoptObjectLite(o); err != nil {
		tb.Fatal(err)
	}
	cl.Run()
	coh, obj := cl.Node(0).Coherence, o.ID()
	var done bool
	var opErr error
	onRel := func(_ struct{}, err error) { opErr, done = err, true }
	onAcq := func(cp *object.Object, err error) {
		if err != nil {
			onRel(struct{}{}, err)
			return
		}
		cp.Bytes()[cp.HeapBase()]++
		coh.Release(obj).Then(onRel)
	}
	home, mark := cl.Node(1).Coherence, []byte{0}
	once = func() {
		if stale {
			mark[0]++
			home.WriteAt(obj, o.HeapBase()+1, mark)
		}
		coh.AcquireExclusive(obj).Then(onAcq)
		cl.Run()
		if !done || opErr != nil {
			tb.Fatalf("acquire+release: done=%v err=%v", done, opErr)
		}
		done = false
	}
	for i := 0; i < 32; i++ {
		once()
	}
	return once, cl, o
}

// TestBulkTransferPipelines: a 64 KiB object crosses the four 10 Gb/s
// hops between node 1 and node 0 as two transfer units each way, and
// every switch stores and forwards, so the pair pipelines. n frames of
// tx(F) = F bytes × 0.8 ns/B (truncated to the ns, as the simulator
// does) finish the last hop Σ tx(F) + 3·max tx(F) after the first
// starts, where one frame takes 4·tx(F). Against a 32 KiB object — one
// frame each way, the same op otherwise — an exclusive acquire+release
// costs exactly that arithmetic more in each direction. The same
// equation held when the unit was 65,492 B and a 64 KiB object went as
// a 65,570 B frame and a 122 B one: the largest frame then crossed three
// more hops whole, and the op took 3 hops × (65,570 − 32,848) B × 0.8
// ns/B = 78.5 µs more each way (535.62 µs, then 378.55). Those ops run
// bulkLoop's stale form, so the grant carries the object; the home's
// write and its invalidate cross the op without delaying it. In the
// current form node 0 still holds the home's version, and its grant is
// one header frame, which also acks the request: the 64 KiB op then
// costs that one frame's crossing in place of the grant's pipeline, and
// of the tx of two 64-byte acks: the one the home sends ahead of a
// response too long to carry it, and node 0's of the last fragment, a
// reliable frame, ahead of its release; the header grant is kept by the
// home, not acked (247.30 µs). Every drain now ends with node 0's tell
// of its mark, 200 µs after the release's answer: 578.55 and 447.30 µs.
func TestBulkTransferPipelines(t *testing.T) {
	type run struct {
		dur    netsim.Duration
		frames [2][]int // first-hop bytes of the grant's and the release's fragments
	}
	measure := func(size int, stale bool) run {
		once, cl, _ := bulkLoop(t, size, stale)
		var r run
		cl.Net.SetFrameControlHook(func(from, _ string, fr netsim.Frame) netsim.FrameControl {
			var h wire.Header
			var m memproto.Msg
			if h.DecodeFrom(fr) != nil || h.Type != wire.MsgMem || m.Unmarshal(fr[h.WireLen():]) != nil {
				return netsim.FrameControl{}
			}
			switch {
			case from == "node1" && (m.Op == memproto.OpGrant || m.Op == memproto.OpObjectPush):
				r.frames[0] = append(r.frames[0], len(fr))
			case from == "node0" && m.Op == memproto.OpRelease:
				r.frames[1] = append(r.frames[1], len(fr))
			}
			return netsim.FrameControl{}
		})
		start := cl.Sim.Now()
		once()
		r.dur = cl.Sim.Now().Sub(start)
		return r
	}
	tx := func(bytes int) netsim.Duration {
		return netsim.Duration(int64(bytes) * 8 * int64(netsim.Second) / netsim.DefaultLink.BitsPerSec)
	}
	pipeline := func(frames []int) netsim.Duration {
		var sum, longest netsim.Duration
		for _, f := range frames {
			sum += tx(f)
			longest = max(longest, tx(f))
		}
		return sum + 3*longest
	}
	one, two := measure(32<<10, true), measure(64<<10, true)
	want := one.dur
	for dir := range two.frames {
		if len(one.frames[dir]) != 1 || len(two.frames[dir]) != 2 {
			t.Fatalf("direction %d: %d and %d frames, want one for 32 KiB and two for 64 KiB",
				dir, len(one.frames[dir]), len(two.frames[dir]))
		}
		// Both halves are transfer units: no frame outgrows the 32 KiB
		// object's but by the second's 3-byte FragOffset uvarint.
		for _, f := range two.frames[dir] {
			if f > one.frames[dir][0]+2 {
				t.Errorf("direction %d: a %d-byte fragment frame, above one transfer unit's %d",
					dir, f, one.frames[dir][0])
			}
		}
		want += pipeline(two.frames[dir]) - pipeline(one.frames[dir])
	}
	if two.dur != want {
		t.Errorf("64 KiB acquire+release took %v, want %v: 32 KiB's %v plus the pipeline arithmetic of frames %v",
			two.dur, want, one.dur, two.frames)
	}
	up := measure(64<<10, false)
	if len(up.frames[0]) != 1 || up.frames[0][0] >= one.frames[0][0]/64 || !slices.Equal(up.frames[1], two.frames[1]) {
		t.Fatalf("upgrade: grant frames %v and release frames %v, want one header frame and %v", up.frames[0], up.frames[1], two.frames[1])
	}
	if want := two.dur - 2*tx(wire.HeaderSize) - pipeline(two.frames[0]) + pipeline(up.frames[0]); up.dur != want {
		t.Errorf("64 KiB upgrade+release took %v, want %v: the stale op's %v with one header frame %v in place of two acks and the grant's %v",
			up.dur, want, two.dur, up.frames[0], two.frames[0])
	}
}

// TestBulkLoopReusesRegions: once warm, every exclusive acquire+release
// of one 64 KiB object whose copy at the acquirer is stale lands in
// recycled memory at both ends — the grant in the copy the acquire
// replaces, the release in a home scratch — and the cluster's own
// telemetry says so. When the copy is current, the grant moves no bytes
// and the acquirer counts no region: the home counts an upgrade.
func TestBulkLoopReusesRegions(t *testing.T) {
	const ops = 50
	for _, stale := range []bool{true, false} {
		once, cl, _ := bulkLoop(t, 64<<10, stale)
		acq, home := cl.Node(0).Coherence, cl.Node(1).Coherence
		a0, h0, tel0 := acq.Counters(), home.Counters(), cl.Telemetry()
		for i := 0; i < ops; i++ {
			once()
		}
		a1, h1, tel1 := acq.Counters(), home.Counters(), cl.Telemetry()
		grants := uint64(0)
		if stale {
			grants = ops
		}
		if got := a1.RegionsReused - a0.RegionsReused; got != grants || a1.RegionsAllocated != a0.RegionsAllocated {
			t.Errorf("stale %v: acquirer reused %d regions and allocated %d in %d ops", stale, got, a1.RegionsAllocated-a0.RegionsAllocated, ops)
		}
		if got := h1.UpgradesServed - h0.UpgradesServed; got != ops-grants {
			t.Errorf("stale %v: home served %d upgrades in %d ops", stale, got, ops)
		}
		if got := h1.RegionsReused - h0.RegionsReused; got != ops {
			t.Errorf("stale %v: home reused %d regions in %d ops", stale, got, ops)
		}
		reused := tel1.Value("coherence.regions_reused") - tel0.Value("coherence.regions_reused")
		allocated := tel1.Value("coherence.regions_allocated") - tel0.Value("coherence.regions_allocated")
		if reused != ops+grants || allocated != 0 {
			t.Errorf("stale %v telemetry: %d regions reused and %d allocated in %d ops, want %d and 0", stale, reused, allocated, ops, ops+grants)
		}
	}
}

// TestE2EAllocGates runs both end-to-end gates under plain `go test`,
// so an allocation regression fails tier-1 and not only CI's -bench
// line.
func TestE2EAllocGates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only bind without -race")
	}
	e2eCoherenceOps(t, nil)
	e2eAcquireRelease64K(t)
}

// TestObservedOpsDoNotAllocate reruns the coherence gate with an
// observer on every node: building an op's record, and a home's publish
// record, allocates nothing.
func TestObservedOpsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only bind without -race")
	}
	var ops, publishes int
	e2eCoherenceOps(t, func(r coherence.Record) {
		if r.Kind == coherence.RecPublish {
			publishes++
		} else if r.Err == nil {
			ops++
		}
	})
	if ops == 0 || publishes == 0 {
		t.Fatalf("observed %d ops and %d publishes", ops, publishes)
	}
}

// The two benchmarks run the same gates even under -benchtime=1x, then
// time the gated ops.
func BenchmarkWorkload_E2ECoherenceOp(b *testing.B) {
	readOnce, writeOnce := e2eCoherenceOps(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readOnce()
		writeOnce()
	}
}

func BenchmarkWorkload_E2EAcquireRelease64K(b *testing.B) {
	once := e2eAcquireRelease64K(b)
	b.SetBytes(2 * 64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		once()
	}
}
