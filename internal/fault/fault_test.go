package fault

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
)

// newCluster builds a small test cluster with fast discovery.
func newCluster(t *testing.T, scheme core.Scheme, seed int64) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{
		Seed:      seed,
		Scheme:    scheme,
		Discovery: discovery.Config{Timeout: 300 * netsim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestScheduleBuilder(t *testing.T) {
	s := NewSchedule().
		WipeTables(3*netsim.Millisecond, -1).
		CrashNode(netsim.Millisecond, 1).
		FlapLink(2*netsim.Millisecond, 0, 500*netsim.Microsecond)
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
	evs := s.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events not sorted: %v then %v", evs[i-1].At, evs[i].At)
		}
	}
	if evs[0].Kind != KindCrash || evs[1].Kind != KindLinkDown {
		t.Fatalf("order = %v, %v", evs[0].Kind, evs[1].Kind)
	}
	if last := evs[len(evs)-1]; last.Kind != KindTableWipe || last.At != 3*netsim.Millisecond {
		t.Fatalf("last event = %v at %v", last.Kind, last.At)
	}
}

func TestCrashPromotesReplicaAndReadsRecover(t *testing.T) {
	// A replicated object survives its home's fail-stop: the injector
	// promotes the surviving copy and a reader with a stale cached
	// location recovers through re-discovery.
	c := newCluster(t, core.SchemeE2E, 7)
	home, replica, reader := c.Node(1), c.Node(2), c.Node(0)

	o, err := home.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := o.AllocString("fault-tolerant")
	okRep := false
	c.ReplicateObject(o.ID(), replica, func(err error) { okRep = err == nil })
	c.Run()
	if !okRep {
		t.Fatal("replication failed")
	}

	// Warm the reader's destination cache so the crash leaves it stale.
	warm := false
	reader.Coherence.ReadAt(o.ID(), off+8, 5).Then(func(_ []byte, err error) {
		warm = err == nil
	})
	c.Run()
	if !warm {
		t.Fatal("warm read failed")
	}

	inj := NewInjector(c)
	inj.Arm(NewSchedule().CrashNode(netsim.Millisecond, 1))

	var got []byte
	var gotErr error
	c.Sim.Schedule(2*netsim.Millisecond, func() {
		reader.Coherence.ReadAt(o.ID(), off+8, 14).Then(func(b []byte, err error) {
			got, gotErr = append([]byte(nil), b...), err
		})
	})
	c.Run()

	if gotErr != nil {
		t.Fatalf("read after crash: %v", gotErr)
	}
	if string(got) != "fault-tolerant" {
		t.Fatalf("read = %q", got)
	}
	if inj.Promotions() != 1 {
		t.Fatalf("promotions = %d", inj.Promotions())
	}
	if len(inj.Lost()) != 0 {
		t.Fatalf("lost = %v", inj.Lost())
	}
}

func TestCrashWithoutReplicaLosesObject(t *testing.T) {
	c := newCluster(t, core.SchemeE2E, 7)
	o, err := c.Node(1).CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()

	inj := NewInjector(c)
	inj.Arm(NewSchedule().CrashNode(netsim.Millisecond, 1))
	c.Run()

	if inj.Promotions() != 0 {
		t.Fatalf("promotions = %d", inj.Promotions())
	}
	lost := inj.Lost()
	if len(lost) != 1 || lost[0] != o.ID() {
		t.Fatalf("lost = %v, want [%v]", lost, o.ID())
	}
}

func TestLinkFlapMaskedByRetransmission(t *testing.T) {
	// A flap shorter than the transport retry budget is invisible to
	// the application: retransmits with backoff bridge the outage.
	c := newCluster(t, core.SchemeE2E, 7)
	owner, reader := c.Node(1), c.Node(0)
	o, err := owner.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := o.AllocString("bridged")
	// Warm the reader's destination cache: the read under test then
	// goes straight to the (flapping) owner and must be bridged by
	// retransmission, not by re-discovery.
	warm := false
	reader.Coherence.ReadAt(o.ID(), off+8, 7).Then(func(_ []byte, err error) {
		warm = err == nil
	})
	c.Run()
	if !warm {
		t.Fatal("warm read failed")
	}

	inj := NewInjector(c)
	armedAt := c.Sim.Now()
	inj.Arm(NewSchedule().FlapLink(netsim.Millisecond, 1, 2*netsim.Millisecond))

	var gotErr error
	var doneAt netsim.Time
	got := false
	c.Sim.Schedule(1500*netsim.Microsecond, func() {
		reader.Coherence.ReadAt(o.ID(), off+8, 7).Then(func(_ []byte, err error) {
			gotErr, got = err, true
			doneAt = c.Sim.Now()
		})
	})
	c.Run()

	if !got {
		t.Fatal("read during flap hung")
	}
	if gotErr != nil {
		t.Fatalf("read during flap: %v", gotErr)
	}
	if upAt := armedAt.Add(3 * netsim.Millisecond); doneAt < upAt {
		t.Fatalf("read completed at %v, before the link returned at %v", doneAt, upAt)
	}
}

func TestTableWipeRepairedByController(t *testing.T) {
	c := newCluster(t, core.SchemeController, 7)
	owner, reader := c.Node(1), c.Node(0)
	o, err := owner.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := o.AllocString("reinstalled")
	warm := false
	reader.Coherence.ReadAt(o.ID(), off+8, 11).Then(func(_ []byte, err error) {
		warm = err == nil
	})
	c.Run()
	if !warm {
		t.Fatal("warm read failed")
	}

	inj := NewInjector(c)
	inj.Arm(NewSchedule().WipeTables(netsim.Millisecond, -1))

	var got []byte
	var gotErr error
	c.Sim.Schedule(2*netsim.Millisecond, func() {
		reader.Coherence.ReadAt(o.ID(), off+8, 11).Then(func(b []byte, err error) {
			got, gotErr = append([]byte(nil), b...), err
		})
	})
	c.Run()

	if gotErr != nil {
		t.Fatalf("read after wipe: %v", gotErr)
	}
	if string(got) != "reinstalled" {
		t.Fatalf("read = %q", got)
	}
}

func TestRestartedNodeServesFreshTraffic(t *testing.T) {
	c := newCluster(t, core.SchemeE2E, 7)
	victim := c.Node(1)
	o, err := victim.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()

	inj := NewInjector(c)
	inj.Arm(NewSchedule().
		CrashNode(netsim.Millisecond, 1).
		RestartNode(3*netsim.Millisecond, 1))
	c.Run()

	if victim.Down() {
		t.Fatal("node still down after restart")
	}
	if victim.Store.Contains(o.ID()) {
		t.Fatal("restart resurrected volatile state")
	}
	// The restarted node can host new objects and serve them.
	o2, err := victim.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := o2.AllocString("born-again")
	var got []byte
	var gotErr error
	c.Node(0).Coherence.ReadAt(o2.ID(), off+8, 10).Then(func(b []byte, err error) {
		got, gotErr = append([]byte(nil), b...), err
	})
	c.Run()
	if gotErr != nil || string(got) != "born-again" {
		t.Fatalf("read from restarted node = %q, %v", got, gotErr)
	}
}

func TestInjectionIsDeterministic(t *testing.T) {
	run := func() (string, netsim.Time) {
		c := newCluster(t, core.SchemeE2E, 21)
		home, replica, reader := c.Node(1), c.Node(2), c.Node(0)
		o, err := home.CreateObject(8192)
		if err != nil {
			t.Fatal(err)
		}
		off, _ := o.AllocString("replay")
		c.ReplicateObject(o.ID(), replica, func(error) {})
		c.Run()

		inj := NewInjector(c)
		inj.Arm(NewSchedule().
			CrashNode(netsim.Millisecond, 1).
			FlapLink(4*netsim.Millisecond, 2, netsim.Millisecond).
			RestartNode(8*netsim.Millisecond, 1))
		c.Sim.Schedule(2*netsim.Millisecond, func() {
			reader.Coherence.ReadAt(o.ID(), off+8, 6)
		})
		c.Run()

		// Every counter of every layer, and what recovery did.
		return fmt.Sprintf("promotions %d lost %v\n%s", inj.Promotions(), inj.Lost(), c.Telemetry()), c.Sim.Now()
	}
	log1, end1 := run()
	log2, end2 := run()
	if log1 != log2 {
		t.Fatalf("runs differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", log1, log2)
	}
	if end1 != end2 {
		t.Fatalf("end times differ: %v vs %v", end1, end2)
	}
}

func TestRediscoveryAfterCrashAllSchemes(t *testing.T) {
	// Every discovery scheme must re-resolve an object whose home
	// crashed and whose surviving replica was promoted: E2E by
	// re-broadcasting after invalidation, Controller by locating
	// against the repaired ownership map.
	for _, scheme := range []core.Scheme{core.SchemeE2E, core.SchemeController} {
		t.Run(scheme.String(), func(t *testing.T) {
			c := newCluster(t, scheme, 13)
			home, replica, reader := c.Node(1), c.Node(2), c.Node(0)
			o, err := home.CreateObject(4096)
			if err != nil {
				t.Fatal(err)
			}
			off, _ := o.AllocString("re-resolved")
			okRep := false
			c.ReplicateObject(o.ID(), replica, func(err error) { okRep = err == nil })
			c.Run()
			if !okRep {
				t.Fatal("replication failed")
			}
			// Warm the reader so its resolver state points at the
			// soon-to-be-dead home.
			warm := false
			reader.Coherence.ReadAt(o.ID(), off+8, 11).Then(func(_ []byte, err error) {
				warm = err == nil
			})
			c.Run()
			if !warm {
				t.Fatal("warm read failed")
			}

			inj := NewInjector(c)
			inj.Arm(NewSchedule().CrashNode(netsim.Millisecond, 1))

			var got []byte
			var gotErr error
			c.Sim.Schedule(2*netsim.Millisecond, func() {
				reader.Coherence.ReadAt(o.ID(), off+8, 11).Then(func(b []byte, err error) {
					got, gotErr = append([]byte(nil), b...), err
				})
			})
			c.Run()

			if gotErr != nil {
				t.Fatalf("%v: read after crash: %v", scheme, gotErr)
			}
			if string(got) != "re-resolved" {
				t.Fatalf("%v: read = %q", scheme, got)
			}
			if inj.Promotions() != 1 {
				t.Fatalf("%v: promotions = %d", scheme, inj.Promotions())
			}
			// Under E2E the reader held a stale destination-cache entry
			// that must have been actively evicted. Controller routes
			// on the object itself: once the new home re-announces,
			// frames just flow to it, no client state to invalidate.
			if scheme == core.SchemeE2E {
				rc, ok := reader.Resolver.(interface{ Counters() discovery.Counters })
				if !ok {
					t.Fatalf("%v: resolver exposes no counters", scheme)
				}
				if rc.Counters().Invalidations == 0 {
					t.Fatalf("%v: no invalidations recorded", scheme)
				}
			}
		})
	}
}
