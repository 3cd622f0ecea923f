package check

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/object"
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
	reader.Deref(object.Global{Obj: o.ID()}, func(_ *object.Object, err error) {
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
	if k.Counters().Scans < 2 || k.Counters().OpsObserved == 0 {
		t.Fatalf("checker did not observe the run: %+v", k.Counters())
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
	// version — the torn-transfer shape the reassembler bugs produce.
	bad, err := object.New(o.ID(), 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	fill(bad, 0x43)
	if err := other.Store.Put(bad, 1, false); err != nil {
		t.Fatal(err)
	}
	home.Coherence.AddSharer(o.ID(), other.Station)
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
	if got := k.Counters().Violations; got != 1 {
		t.Fatalf("violations counter = %d, want 1", got)
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
		reader.Deref(object.Global{Obj: o.ID()}, func(oo *object.Object, err error) {
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
		return outcome{c.Sim.Now(), c.Stats().Network.FramesSent, got.Checksum()}
	}
	on, off := run(true), run(false)
	if on != off {
		t.Fatalf("checker perturbed the run: with=%+v without=%+v", on, off)
	}
}

func TestScenariosCleanWithFixes(t *testing.T) {
	for _, sc := range Scenarios() {
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
			if run.Checker.Counters().Scans == 0 {
				t.Fatal("checker never scanned")
			}
		})
	}
}
