package check

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/future"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/wire"
)

// buildCluster makes a small checked cluster for invariant unit tests.
func buildCluster(t *testing.T) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{Seed: 7, Scheme: core.SchemeE2E})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

// observed reports whether some record raised a station's floor: the
// walk alone leaves every floor at 0.
func observed(k *Checker) bool {
	for _, m := range k.objects {
		for _, p := range m.stations {
			if p.floor > 0 {
				return true
			}
		}
	}
	return false
}

func hasViolation(k *Checker, invariant string) bool {
	for _, v := range k.Violations() {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// TestCheckerRefusesRealnet: a realnet cluster has no simulator to
// explore schedules on, and New says so instead of dereferencing nil.
func TestCheckerRefusesRealnet(t *testing.T) {
	c, err := core.NewCluster(core.Config{Backend: core.BackendRealnet})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "sim-only") {
			t.Fatalf("New on a realnet cluster: recovered %v, want a sim-only panic", r)
		}
	}()
	New(c)
}

func TestCheckerCleanWorkload(t *testing.T) {
	c := buildCluster(t)
	home, reader := c.Node(1), c.Node(0)
	o, err := home.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	k := New(c)
	done := false
	reader.Deref(object.Global{Obj: o.ID()}).Then(func(_ *object.Object, err error) {
		if err != nil {
			t.Errorf("deref: %v", err)
		}
		done = true
	})
	c.Run()
	k.CheckNow()
	if !done {
		t.Fatal("deref never completed")
	}
	if !k.Ok() {
		t.Fatalf("clean workload flagged: %v", k.Violations())
	}
	if !observed(k) {
		t.Fatal("checker did not observe the run")
	}
}

func TestCheckerCopyDivergence(t *testing.T) {
	c := buildCluster(t)
	home, other := c.Node(1), c.Node(0)
	o, err := home.CreateObject(2048)
	if err != nil {
		t.Fatal(err)
	}
	fill(o, 0x42)
	c.Run()
	k := New(c)
	// Plant a corrupted cached copy labeled with the home's published
	// version — the torn-transfer shape the reassembler bugs produce —
	// and acquire it: the acquire's record carries the bad bytes.
	bad, err := object.New(o.ID(), 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	fill(bad, 0x43)
	if err := other.Store.Put(bad, 1, false); err != nil {
		t.Fatal(err)
	}
	home.Coherence.AddSharer(o.ID(), other.Station)
	other.Coherence.AcquireShared(o.ID())
	k.CheckNow()
	if !hasViolation(k, InvCopyDivergence) {
		t.Fatalf("corrupted copy not flagged: %v", k.Violations())
	}
}

func TestCheckerSingleHomeAndCoverage(t *testing.T) {
	c := buildCluster(t)
	home, other := c.Node(1), c.Node(2)
	o, err := home.CreateObject(2048)
	if err != nil {
		t.Fatal(err)
	}
	fill(o, 1)
	c.Run()
	k := New(c)

	// A cached copy the home's directory does not cover.
	ghost, _ := object.New(o.ID(), 2048, 0)
	fill(ghost, 1)
	if err := other.Store.Put(ghost, 1, false); err != nil {
		t.Fatal(err)
	}
	k.CheckNow()
	if !hasViolation(k, InvDirectoryCoverage) {
		t.Fatalf("uncovered copy not flagged: %v", k.Violations())
	}

	// A second node claiming the authoritative copy.
	dup, _ := object.New(o.ID(), 2048, 0)
	fill(dup, 1)
	if err := c.Node(0).Store.Put(dup, 1, true); err != nil {
		t.Fatal(err)
	}
	k.CheckNow()
	if !hasViolation(k, InvSingleHome) {
		t.Fatalf("double home not flagged: %v", k.Violations())
	}
}

func TestCheckerVersionMonotonic(t *testing.T) {
	c := buildCluster(t)
	home := c.Node(1)
	o, err := home.CreateObject(2048)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	k := New(c)
	if _, err := home.Store.BumpVersion(o.ID()); err != nil {
		t.Fatal(err)
	}
	k.CheckNow()
	if !k.Ok() {
		t.Fatalf("version bump flagged: %v", k.Violations())
	}
	e, _ := home.Store.Peek(o.ID())
	e.Version = 1
	k.CheckNow()
	if !hasViolation(k, InvVersionMonotonic) {
		t.Fatalf("version regression not flagged: %v", k.Violations())
	}

	// Epoch forgives a legitimate history rewind (crash + promotion).
	k2 := New(c)
	if _, err := home.Store.BumpVersion(o.ID()); err != nil {
		t.Fatal(err)
	}
	k2.CheckNow()
	k2.Epoch()
	e.Version = 1
	k2.CheckNow()
	if hasViolation(k2, InvVersionMonotonic) {
		t.Fatalf("post-Epoch rewind flagged: %v", k2.Violations())
	}
}

func TestCheckerHomeRewrite(t *testing.T) {
	c := buildCluster(t)
	home := c.Node(1)
	o, err := home.CreateObject(2048)
	if err != nil {
		t.Fatal(err)
	}
	fill(o, 9)
	c.Run()
	k := New(c)
	// Mutating home content without a version bump republishes
	// different bytes under the same version.
	o.WriteAt(0, []byte("silent rewrite"))
	k.CheckNow()
	if !hasViolation(k, InvHomeRewrite) {
		t.Fatalf("silent rewrite not flagged: %v", k.Violations())
	}
}

func TestCheckerBufBalance(t *testing.T) {
	c := buildCluster(t)
	c.Run()
	k := New(c)
	leak := dataplane.GetBuf(128)
	k.CheckNow()
	leak.Release()
	if !hasViolation(k, InvBufBalance) {
		t.Fatalf("leaked buffer not flagged: %v", k.Violations())
	}
}

func TestCheckerTelemetryAndDedup(t *testing.T) {
	c := buildCluster(t)
	home := c.Node(1)
	o, err := home.CreateObject(2048)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	k := New(c)
	e, _ := home.Store.Peek(o.ID())
	e.Version = 0
	k.CheckNow()
	k.CheckNow() // same breach again: deduplicated
	if n := len(k.Violations()); n != 1 {
		t.Fatalf("want 1 deduplicated violation, got %d: %v", n, k.Violations())
	}
	if got := len(k.seen); got != 1 {
		t.Fatalf("%d deduplication keys, want 1", got)
	}
	if !strings.Contains(k.Violations()[0].String(), InvVersionMonotonic) {
		t.Fatalf("violation string lacks invariant name: %s", k.Violations()[0])
	}
}

// TestCheckerZeroPerturbation runs the same seeded workload with the
// checker on and off: frame counts, virtual end time, and final
// object bytes must be bit-identical — the checker only observes.
func TestCheckerZeroPerturbation(t *testing.T) {
	type outcome struct {
		now      netsim.Time
		frames   uint64
		checksum uint64
	}
	run := func(check bool) outcome {
		c := buildCluster(t)
		home, reader := c.Node(1), c.Node(0)
		o, err := home.CreateObject(160_000)
		if err != nil {
			t.Fatal(err)
		}
		fill(o, 0x77)
		c.Run()
		var k *Checker
		if check {
			k = New(c)
		}
		var got *object.Object
		reader.Deref(object.Global{Obj: o.ID()}).Then(func(oo *object.Object, err error) {
			if err != nil {
				t.Errorf("deref: %v", err)
			}
			got = oo
		})
		c.Run()
		if check {
			k.CheckNow()
			if !k.Ok() {
				t.Fatalf("clean run flagged: %v", k.Violations())
			}
		}
		if got == nil {
			t.Fatal("acquire never completed")
		}
		return outcome{c.Sim.Now(), c.Telemetry().Value("net.frames_sent"), got.Checksum()}
	}
	on, off := run(true), run(false)
	if on != off {
		t.Fatalf("checker perturbed the run: with=%+v without=%+v", on, off)
	}
}

func TestScenariosCleanWithFixes(t *testing.T) {
	for _, sc := range Scenarios(11) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			run, err := sc.Build(11, false)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if err := run.Drive(); err != nil {
				t.Fatalf("drive: %v", err)
			}
			if !run.Checker.Ok() {
				t.Fatalf("unperturbed %s run flagged: %v", sc.Name, run.Checker.Violations())
			}
			if !observed(run.Checker) {
				t.Fatal("checker observed no record")
			}
		})
	}
}

// history feeds hand-built records of one object straight to a checker
// that watches no cluster. Station 1 is the home; the clock is at.
type history struct {
	t   *testing.T
	k   *Checker
	obj oid.ID
	at  netsim.Time
}

func newHistory(t *testing.T) *history {
	h := &history{t: t, obj: oid.NewSeededGenerator(1).New()}
	h.k = newChecker(func() netsim.Time { return h.at })
	return h
}

// op records an operation of kind at st, invoked at inv and answered at
// resp, that read or published version v with bytes b.
func (h *history) op(kind coherence.RecordKind, st wire.StationID, inv, resp netsim.Time, v uint64, b string) {
	h.at = resp
	h.k.step(coherence.Record{Station: st, Obj: h.obj, Kind: kind, Version: v, Bytes: []byte(b), Invoke: inv, Response: resp})
}

// publish records the home publishing version v with bytes b at at.
func (h *history) publish(at netsim.Time, v uint64, b string) {
	h.op(coherence.RecPublish, 1, at, at, v, b)
}

// ack records station st acking an invalidate at at, dropping version v.
func (h *history) ack(st wire.StationID, at netsim.Time, v uint64) {
	h.op(coherence.RecInvalidateAck, st, at, at, v, "")
}

// want asserts the violations so far, by invariant name.
func (h *history) want(invariants ...string) {
	h.t.Helper()
	var got []string
	for _, v := range h.k.Violations() {
		got = append(got, v.Invariant)
	}
	if strings.Join(got, ",") != strings.Join(invariants, ",") {
		h.t.Fatalf("violations %v, want %v", h.k.Violations(), invariants)
	}
}

// TestStaleReadAfterInvalidateAck: once S acked the invalidate of the
// version it held, and the home had published a newer one, nothing S
// invokes afterwards may return the dropped version. A read invoked
// before the ack may.
func TestStaleReadAfterInvalidateAck(t *testing.T) {
	h := newHistory(t)
	h.publish(0, 1, "v1")
	h.op(coherence.RecAcquireShared, 2, 10, 20, 1, "v1")
	h.publish(30, 2, "v2")
	h.op(coherence.RecRead, 2, 32, 50, 1, "v1") // invoked before the ack
	h.ack(2, 35, 1)
	h.op(coherence.RecRead, 2, 60, 70, 2, "")
	h.want()
	h.op(coherence.RecRead, 2, 80, 90, 1, "")
	h.want(InvStaleRead)
	if v := h.k.Violations()[0]; v.At != 90 || !strings.Contains(v.Detail, "station 2's read invoked at 80 returned version 1, older than version 2") {
		t.Fatalf("violation %v", v)
	}
}

// TestInvalidateOfAFreshCopyRaisesNoFloor: an invalidate that overtakes
// a later grant drops a copy as new as the home's newest version; the
// station may read that version again.
func TestInvalidateOfAFreshCopyRaisesNoFloor(t *testing.T) {
	h := newHistory(t)
	h.publish(0, 3, "v3")
	h.op(coherence.RecAcquireShared, 2, 10, 20, 3, "v3")
	h.ack(2, 25, 3)
	h.op(coherence.RecRead, 2, 30, 40, 3, "")
	h.want()
}

func TestReadYourWrites(t *testing.T) {
	h := newHistory(t)
	h.publish(0, 1, "v1")
	h.op(coherence.RecWrite, 2, 10, 20, 2, "w")
	h.op(coherence.RecRead, 3, 25, 30, 1, "") // another station: no guarantee
	h.want()
	h.op(coherence.RecRead, 2, 25, 30, 1, "")
	h.want(InvStaleRead)
}

func TestMonotonicReads(t *testing.T) {
	h := newHistory(t)
	h.op(coherence.RecRead, 2, 10, 20, 3, "")
	h.op(coherence.RecRead, 2, 15, 25, 2, "") // concurrent with the first
	h.op(coherence.RecAcquireExclusive, 2, 30, 40, 2, "")
	h.want()
	h.op(coherence.RecAcquireShared, 2, 50, 60, 2, "")
	h.want(InvStaleRead)
}

// TestAcquireMissingThePublishedDigest: an acquire's bytes must be what
// the home published under the grant's version, unless the station
// already held the object exclusively and may have changed its copy.
func TestAcquireMissingThePublishedDigest(t *testing.T) {
	h := newHistory(t)
	h.publish(0, 1, "published")
	h.op(coherence.RecAcquireExclusive, 2, 10, 20, 1, "published")
	h.op(coherence.RecAcquireShared, 2, 21, 21, 1, "changed by its holder")
	h.op(coherence.RecAcquireShared, 3, 10, 20, 1, "published")
	h.op(coherence.RecAcquireShared, 3, 30, 30, 9, "a version never published here")
	h.want(InvCopyVersionAhead)
	h.op(coherence.RecAcquireShared, 4, 40, 50, 1, "torn")
	h.want(InvCopyVersionAhead, InvCopyDivergence)
}

// TestEpochResetsFloors: a crash and promotion rewinds history, so
// Epoch forgets every floor and every published version, and ignores
// the records of operations invoked before it.
func TestEpochResetsFloors(t *testing.T) {
	h := newHistory(t)
	h.publish(0, 5, "v5")
	h.op(coherence.RecRead, 2, 10, 20, 5, "")
	h.at = 30
	h.k.Epoch()
	h.op(coherence.RecRead, 2, 25, 40, 6, "") // invoked before the epoch
	h.publish(45, 1, "rebuilt")
	h.op(coherence.RecRead, 2, 50, 60, 1, "")
	h.op(coherence.RecAcquireShared, 2, 70, 80, 1, "rebuilt")
	h.want()
}

// TestToldExclusiveBehindSharedFetch runs core's
// TestExclusiveAcquireBehindSharedFetch script under a checker: a
// station with a shared fetch in flight asks for the object exclusively
// too. The exclusive acquire must not ride on the shared grant, so the
// caller told exclusive holds an exclusive grant at quiescence.
func TestToldExclusiveBehindSharedFetch(t *testing.T) {
	c := buildCluster(t)
	sharer, home, acq := c.Node(0), c.Node(1), c.Node(2)
	o, err := home.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	k := New(c)
	sharer.Coherence.AcquireShared(o.ID())
	c.Run()
	shared := acq.Coherence.AcquireShared(o.ID())
	excl := acq.Coherence.AcquireExclusive(o.ID())
	c.Run()
	for _, f := range []*future.Future[*object.Object]{shared, excl} {
		if _, err := f.Result(); !f.Done() || err != nil {
			t.Fatalf("acquire: done=%v, %v", f.Done(), err)
		}
	}
	k.CheckNow()
	if !k.Ok() {
		t.Fatalf("violations: %v", k.Violations())
	}
}

// TestClaimRule replays the E10 runs the model once flagged and holds
// one it must still flag. In the first four, a station was told
// exclusive and its release then timed out, its answer lost: the home
// applied the release and published a newer version, which a read the
// station had invoked earlier returned, and the node dropped its copy
// and its grant. A timed-out op's outcome is unknown, so it ends the
// claim. In the fifth, the home granted station 2 exclusive after it
// sent station 1 an invalidate that every transmission lost: station
// 1's exclusive grant is one its home no longer counts. A station told
// exclusive whose node lost the grant with no record that ends the
// claim or a home action that revokes it is still flagged.
func TestClaimRule(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		seed     int64
		schedule string
	}{
		{"load", 109, "drop:4,dropall:8"},
		{"batch", 153, "drop:2,dropall:11"},
		{"batch", 252, "drop:3,dropall:11"},
		{"batch", 300, "drop:8,dropall:11"},
		{"batch", 125, "dropall:6,dropall:11"},
	} {
		sc, _ := ScenarioByName(tc.scenario)
		sched, err := ParseSchedule(tc.schedule)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(sc, tc.seed, sched)
		if err != nil || !rep.Clean() {
			t.Errorf("%s -seed %d -schedule %s: %v, %v", tc.scenario, tc.seed, tc.schedule, err, rep)
		}
	}

	c := buildCluster(t)
	o, err := c.Node(1).CreateObject(2048)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	k := New(c)
	c.Node(0).Coherence.AcquireExclusive(o.ID())
	c.Run()
	c.Node(0).Store.Invalidate(o.ID()) // the grant is gone, and no record says so
	k.CheckNow()
	if !hasViolation(k, InvToldExclusive) {
		t.Fatalf("a lost grant was not flagged: %v", k.Violations())
	}
}
