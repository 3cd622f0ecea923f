package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/wire"
)

// arming is one push the order test made: the instant it is due, its
// place in the global push order (what Sim.seq counts), and whether it
// is a daemon's.
type arming struct {
	at     Time
	n      int
	daemon bool
}

// oracle is the queue as a sorted slice: every arming that has been
// pushed and neither fired nor been taken out, in (at, push order). The
// order test drives the simulator and the oracle through the same
// script and compares them after every step.
type oracle struct {
	t      *testing.T
	s      *Sim
	pushed int
	queue  []*arming
	high   int // most armings ever queued at once

	lastForeground Time // when the latest non-daemon arming fired
}

// timer is a Timer and the arming the oracle holds for it, if any.
type timer struct {
	tm  *Timer
	cur *arming
}

func (o *oracle) arm(d Duration, daemon bool) *arming {
	a := &arming{at: o.s.Now().Add(d), n: o.pushed, daemon: daemon}
	o.pushed++
	i := sort.Search(len(o.queue), func(i int) bool { return o.queue[i].at > a.at })
	o.queue = slices.Insert(o.queue, i, a) // after every arming due at the same instant
	o.high = max(o.high, len(o.queue))
	return a
}

// fire is what every callback calls first: a must be the oracle's head,
// and it must be its instant.
func (o *oracle) fire(a *arming) {
	o.t.Helper()
	if len(o.queue) == 0 || o.queue[0] != a {
		o.t.Fatalf("arming %d (due %d) fired at %d; the oracle's head is %+v", a.n, a.at, o.s.Now(), o.queue)
	}
	if o.s.Now() != a.at {
		o.t.Fatalf("arming %d due at %d fired at %d", a.n, a.at, o.s.Now())
	}
	o.queue = o.queue[1:]
	if !a.daemon {
		o.lastForeground = a.at
	}
}

func (o *oracle) newTimer(d Duration, daemon bool) *timer {
	tr := &timer{cur: o.arm(d, daemon)}
	fn := func() {
		o.fire(tr.cur)
		tr.cur = nil
	}
	if daemon {
		tr.tm = o.s.AfterFuncDaemon(d, fn).(*Timer)
	} else {
		tr.tm = o.s.AfterFunc(d, fn).(*Timer)
	}
	return tr
}

// stop stops tr on both sides and checks what Stop reports.
func (o *oracle) stop(tr *timer) {
	o.t.Helper()
	if got, want := tr.tm.Stop(), tr.cur != nil; got != want {
		o.t.Fatalf("Stop reported %v for a timer with pending=%v", got, want)
	}
	o.drop(tr)
}

func (o *oracle) reset(tr *timer, d Duration) {
	o.t.Helper()
	pending := tr.cur != nil
	o.drop(tr)
	tr.cur = o.arm(d, tr.tm.daemon)
	if got := tr.tm.Reset(d); got != pending {
		o.t.Fatalf("Reset reported %v for a timer with pending=%v", got, pending)
	}
}

func (o *oracle) drop(tr *timer) {
	if tr.cur != nil {
		i := slices.Index(o.queue, tr.cur)
		o.queue = slices.Delete(o.queue, i, i+1)
		tr.cur = nil
	}
}

func (o *oracle) schedule(d Duration, then func()) {
	a := o.arm(d, false)
	o.s.Schedule(d, func() {
		o.fire(a)
		if then != nil {
			then()
		}
	})
}

// check compares the simulator's bookkeeping with the oracle's: as many
// events queued, as many of them foreground, and a slab that never grew
// past the most that were ever queued at once.
func (o *oracle) check() {
	o.t.Helper()
	foreground := 0
	for _, a := range o.queue {
		if !a.daemon {
			foreground++
		}
	}
	if o.s.Pending() != len(o.queue) || o.s.foreground != foreground || len(o.s.slab) != o.high {
		o.t.Fatalf("Pending() %d, foreground %d, slab %d slots; oracle holds %d, %d foreground, high-water %d",
			o.s.Pending(), o.s.foreground, len(o.s.slab), len(o.queue), foreground, o.high)
	}
}

// TestHeapPopsInPushOrder drives random closures, timers and daemon
// timers — stopped, reset and re-armed between bursts of RunFor, and
// scheduling more work from inside their callbacks — through the
// simulator and a sorted-slice oracle at once: every firing is the
// oracle's head at its instant, so exactly the live armings fire, in
// strictly increasing (at, push order); a stopped or superseded firing
// leaves the queue at once (Pending, the foreground count and the
// slab's size say so after every step); and Run ends at the last live
// foreground event.
func TestHeapPopsInPushOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			o := &oracle{t: t, s: NewSim(seed)}
			delay := func() Duration { return Duration(rng.Intn(40)) } // few distinct instants: many ties
			var timers []*timer
			var schedule func(depth int)
			schedule = func(depth int) {
				o.schedule(delay(), func() {
					if depth < 3 && rng.Intn(2) == 0 {
						schedule(depth + 1)
					}
				})
			}
			for burst := 0; burst < 30; burst++ {
				for i := rng.Intn(20); i > 0; i-- {
					switch op := rng.Intn(6); {
					case op <= 1:
						timers = append(timers, o.newTimer(delay(), op == 1))
					case op == 2 && len(timers) > 0:
						o.stop(timers[rng.Intn(len(timers))])
					case op == 3 && len(timers) > 0:
						o.reset(timers[rng.Intn(len(timers))], delay())
					default:
						schedule(0)
					}
					o.check()
				}
				o.s.RunFor(Duration(rng.Intn(25)))
				o.check()
			}
			o.lastForeground = o.s.Now()
			o.s.Run()
			o.check()
			if o.s.foreground != 0 || o.s.Now() != o.lastForeground {
				t.Fatalf("Run left %d foreground events and the clock at %d; the last one fired at %d",
					o.s.foreground, o.s.Now(), o.lastForeground)
			}
			o.s.RunFor(100) // flush the daemon timers Run does not wait for
			o.check()
			if o.s.Pending() != 0 {
				t.Fatalf("%d events still pending", o.s.Pending())
			}
		})
	}

	// A timer re-armed again and again while other events take and leave
	// the slots its earlier firings used: the firing that runs is always
	// the latest arming's, from whichever slot that took.
	t.Run("recycled-slot", func(t *testing.T) {
		o := &oracle{t: t, s: NewSim(1)}
		tr := o.newTimer(100, false)
		o.reset(tr, 10) // the arming due at 100 leaves the queue; its slot is free again
		o.check()
		o.s.RunUntil(10) // the timer fires and frees the slot a second time
		o.schedule(90, nil)
		bystander := o.newTimer(90, false) // these two take the freed slots
		o.check()
		o.s.RunUntil(20)
		o.reset(tr, 180) // due at 200, in a third slot
		o.stop(bystander)
		o.reset(bystander, 80)
		o.check()
		o.s.Run()
		o.check()
		if o.s.Now() != 200 || o.pushed != 6 || len(o.s.slab) != 3 {
			t.Fatalf("ended at %d after %d pushes in %d slots, want 200, 6, 3", o.s.Now(), o.pushed, len(o.s.slab))
		}
	})
}

// TestRunStopsAtLastLiveEvent: a stopped timer is not an event. A drain
// neither waits for the instant it was due nor counts it, so time read
// after Run is the time the work took.
func TestRunStopsAtLastLiveEvent(t *testing.T) {
	s := NewSim(1)
	s.Schedule(30*Microsecond, func() {})
	s.Run()
	deadline := s.AfterFunc(5*Millisecond, func() { t.Error("stopped timer fired") })
	s.Schedule(20*Microsecond, func() { deadline.Stop() })
	if n := s.Run(); n != 1 || s.Now() != Time(50*Microsecond) || s.Pending() != 0 {
		t.Fatalf("Run processed %d events and left Now() at %v with %d pending; want 1, 50µs, 0", n, s.Now(), s.Pending())
	}
	deadline = s.AfterFunc(5*Millisecond, func() { t.Error("stopped timer fired") })
	deadline.Stop()
	if n := s.Run(); n != 0 || s.Now() != Time(50*Microsecond) {
		t.Fatalf("Run over a queue of one stopped timer processed %d events, Now() = %v", n, s.Now())
	}
}

// TestSlabBoundedAndCleared: the payload slab grows to the largest
// number of events ever pending at once and no further — slots are
// reused — and a drained simulator holds no payload: every slot is
// zero, so no closure, frame or FrameBuffer outlives its event.
func TestSlabBoundedAndCleared(t *testing.T) {
	base := dataplane.LiveBufs()
	s, _, a, b := twoHosts(t, LinkConfig{Latency: 2 * Microsecond, BitsPerSec: 1_000_000_000})
	b.OnFrame = func(Frame) {}
	rng := rand.New(rand.NewSource(5))
	high := 0
	sample := func() {
		if n := s.Pending(); n > high {
			high = n
		}
	}
	seq := uint64(0)
	for round := 0; round < 50; round++ {
		for i := rng.Intn(30); i > 0; i-- {
			switch rng.Intn(3) {
			case 0:
				h := wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2, Seq: seq}
				seq++
				buf, err := dataplane.EncodeFrame(&h, []byte("slab-probe"))
				if err != nil {
					t.Fatal(err)
				}
				a.SendBuf(buf.Bytes(), buf)
			case 1:
				s.Schedule(Duration(rng.Intn(5000)), func() {
					s.Schedule(Duration(rng.Intn(5000)), func() {})
				})
			case 2:
				tm := s.AfterFunc(Duration(rng.Intn(5000)), func() {})
				if rng.Intn(2) == 0 {
					tm.Stop()
				}
			}
			sample()
		}
		// Drain part of the queue, so later rounds push into freed slots.
		for i := rng.Intn(40); i > 0 && s.Step(); i-- {
			sample()
		}
	}
	for s.Step() {
		sample()
	}
	if len(s.slab) != high {
		t.Fatalf("slab holds %d slots, high-water mark of Pending() was %d", len(s.slab), high)
	}
	if len(s.free) != len(s.slab) {
		t.Fatalf("%d of %d slots free after a drain", len(s.free), len(s.slab))
	}
	for i := range s.slab {
		if !reflect.ValueOf(s.slab[i]).IsZero() {
			t.Fatalf("slot %d not cleared: %+v", i, s.slab[i])
		}
	}
	if live := dataplane.LiveBufs(); live != base {
		t.Fatalf("LiveBufs = %d after a drain, baseline %d", live, base)
	}
}

// BenchmarkSim_PushPop is one push and one pop against a queue kept at
// a fixed depth: 16 is what a closed loop of four readers holds now that
// cancelled timers leave the queue, 1024 a burst (or the same loop
// before, with a stopped deadline parked behind every recent read).
func BenchmarkSim_PushPop(b *testing.B) {
	for _, depth := range []int{16, 1024} {
		b.Run(fmt.Sprint("depth=", depth), func(b *testing.B) {
			s := NewSim(1)
			fn := func() {}
			rng := rand.New(rand.NewSource(1))
			delays := make([]Duration, 4096)
			for i := range delays {
				delays[i] = Duration(1 + rng.Intn(1000))
			}
			for i := 0; i < depth; i++ {
				s.Schedule(delays[i], fn)
			}
			i := 0
			pushPop := func() {
				s.Schedule(delays[i&4095], fn)
				s.Step()
				i++
			}
			if allocs := testing.AllocsPerRun(1000, pushPop); allocs != 0 {
				b.Fatalf("push+pop allocates %v/op, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				pushPop()
			}
		})
	}
}

// BenchmarkSim_ArmStop is what a request that gets its answer costs the
// queue: arm a deadline 5 ms out behind a few live events, then stop it.
// Both take the firing in and out of the heap; neither allocates.
func BenchmarkSim_ArmStop(b *testing.B) {
	s := NewSim(1)
	fn := func() {}
	for i := 1; i <= 16; i++ {
		s.Schedule(Duration(i)*Microsecond, fn)
	}
	tm := s.AfterFunc(5*Millisecond, fn).(*Timer)
	armStop := func() {
		tm.Reset(5 * Millisecond)
		tm.Stop()
	}
	if allocs := testing.AllocsPerRun(1000, armStop); allocs != 0 || s.Pending() != 16 {
		b.Fatalf("arm+stop allocates %v/op and leaves %d events queued, want 0 and 16", allocs, s.Pending())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		armStop()
	}
}
