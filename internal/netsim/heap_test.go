package netsim

import (
	"encoding/binary"
	"errors"
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

	// queued[inLane][kind-evDeliver] records that check saw a frame event
	// of that kind queued in the heap (false) or in its lane (true).
	queued [2][numLanes]bool
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
	if o.s.Pending() != len(o.queue) || o.s.foreground != foreground || len(o.s.slab) > o.high {
		o.t.Fatalf("Pending() %d, foreground %d, slab %d slots; oracle holds %d, %d foreground, high-water %d",
			o.s.Pending(), o.s.foreground, len(o.s.slab), len(o.queue), foreground, o.high)
	}
	for _, k := range o.s.heap {
		if kind := o.s.slab[k.slot].kind; kind == evDeliver || kind == evSend {
			o.queued[0][kind-evDeliver] = true
		}
	}
	for i := range o.s.lanes {
		o.queued[1][i] = o.queued[1][i] || o.s.lanes[i].n > 0
	}
}

// frames drives frame events through a network on the oracle's
// simulator: sends after a pipeline delay (SendBufAfter) at three
// delays, immediate sends, and arrivals over three links of different
// latency and rate, some delayed, duplicated or dropped by the
// frame-control hook — so both lanes fill, and frame events of each kind
// that come out of time order go to the heap. The oracle arms a delayed
// send when it is queued and an arrival when the link works it out (the
// span hook); the control hook fires the one, the receiving host the
// other.
type frames struct {
	o        *oracle
	rng      *rand.Rand
	hosts    []*Host
	ctl      FrameControl // what the control hook returned for the frame in SendBuf
	next     uint64
	sends    map[uint64]*arming
	arrivals map[uint64][]*arming // by frame, in the order they are due
}

func newFrames(o *oracle, rng *rand.Rand) *frames {
	f := &frames{o: o, rng: rng, sends: map[uint64]*arming{}, arrivals: map[uint64][]*arming{}}
	n := NewNetwork(o.s)
	links := []LinkConfig{{Latency: 3}, {Latency: 1, BitsPerSec: 8_000_000_000}, {Latency: 10, BitsPerSec: 1_000_000_000}}
	for i, cfg := range links {
		a, err := NewHost(n, fmt.Sprint("a", i))
		if err != nil {
			o.t.Fatal(err)
		}
		b, err := NewHost(n, fmt.Sprint("b", i))
		if err != nil {
			o.t.Fatal(err)
		}
		if err := n.Connect(a, 0, b, 0, cfg); err != nil {
			o.t.Fatal(err)
		}
		f.hosts = append(f.hosts, a, b)
	}
	for _, h := range f.hosts {
		h.OnFrame = func(fr Frame) { f.arrive(h, fr) }
	}
	n.SetFrameControlHook(f.control)
	n.SetFrameSpanHook(f.span)
	return f
}

// send sends a new frame from a random host, after a pipeline delay or
// at once.
func (f *frames) send(delayed bool) { f.sendFrom(f.hosts[f.rng.Intn(len(f.hosts))], delayed) }

func (f *frames) sendFrom(h *Host, delayed bool) {
	fr := binary.BigEndian.AppendUint64(nil, f.next)
	f.next++
	if !delayed {
		h.Send(fr)
		return
	}
	d := Duration(f.rng.Intn(3) * 7)
	f.sends[binary.BigEndian.Uint64(fr)] = f.o.arm(d, false)
	h.net.SendBufAfter(h.att, 0, fr, nil, d)
}

func (f *frames) control(_, _ string, fr Frame) FrameControl {
	id := binary.BigEndian.Uint64(fr)
	if a, ok := f.sends[id]; ok {
		delete(f.sends, id)
		f.o.fire(a)
	}
	f.ctl = FrameControl{}
	switch f.rng.Intn(16) {
	case 0, 1:
		f.ctl.Delay = Duration(1 + f.rng.Intn(30))
	case 2, 3:
		f.ctl.Dup, f.ctl.DupDelay = true, Duration(f.rng.Intn(10))
	case 4:
		f.ctl.Drop = true
	}
	return f.ctl
}

func (f *frames) span(_, _ string, fr Frame, _, arrival Time, _, _ Duration, dropped bool) {
	if dropped {
		return
	}
	id, d := binary.BigEndian.Uint64(fr), arrival.Sub(f.o.s.Now())
	f.arrivals[id] = append(f.arrivals[id], f.o.arm(d, false))
	if f.ctl.Dup {
		f.arrivals[id] = append(f.arrivals[id], f.o.arm(d+f.ctl.DupDelay, false))
	}
}

// arrive fires the frame's next arrival and, a third of the time, sends
// a frame on from the receiving host, the way a switch forwards.
func (f *frames) arrive(h *Host, fr Frame) {
	id := binary.BigEndian.Uint64(fr)
	q := f.arrivals[id]
	if len(q) == 0 {
		f.o.t.Fatalf("frame %d arrived at %s unannounced at %d", id, h.name, f.o.s.Now())
	}
	f.o.fire(q[0])
	if f.arrivals[id] = q[1:]; len(q) == 1 {
		delete(f.arrivals, id)
	}
	if f.rng.Intn(3) == 0 {
		f.sendFrom(h, true)
	}
}

// TestHeapPopsInPushOrder drives random closures, timers and daemon
// timers — stopped, reset and re-armed between bursts of RunFor, and
// scheduling more work from inside their callbacks — and frame events
// (see frames) through the simulator and a sorted-slice oracle at once:
// every firing is the oracle's head at its instant, so exactly the live
// armings fire, in strictly increasing (at, push order), whether they
// waited in the heap or in a lane; a stopped or superseded firing
// leaves the queue at once (Pending, the foreground count and the
// slab's size say so after every step); and Run ends at the last live
// foreground event.
func TestHeapPopsInPushOrder(t *testing.T) {
	var queued [2][numLanes]bool
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			o := &oracle{t: t, s: NewSim(seed)}
			defer func() {
				for i := range queued {
					for k := range queued[i] {
						queued[i][k] = queued[i][k] || o.queued[i][k]
					}
				}
			}()
			f := newFrames(o, rng)
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
					switch op := rng.Intn(8); {
					case op <= 1:
						timers = append(timers, o.newTimer(delay(), op == 1))
					case op == 2 && len(timers) > 0:
						o.stop(timers[rng.Intn(len(timers))])
					case op == 3 && len(timers) > 0:
						o.reset(timers[rng.Intn(len(timers))], delay())
					case op >= 6:
						f.send(op == 6)
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
	if queued != [2][numLanes]bool{{true, true}, {true, true}} {
		t.Fatalf("frame events queued [heap, lane][arrival, send]: %v; want each kind seen in both", queued)
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

// TestSlabBoundedAndCleared: the payload slab grows to the most events
// ever in the heap at once and each lane's ring to the smallest power
// of two (minLane at least) holding the most it ever held — slots and
// entries are reused — neither past the high-water mark of Pending();
// and a drained simulator holds no payload: every slot and ring entry is
// zero, so no closure, frame or FrameBuffer outlives its event.
func TestSlabBoundedAndCleared(t *testing.T) {
	base := dataplane.LiveBufs()
	s, n, a, b := twoHosts(t, LinkConfig{Latency: 2 * Microsecond, BitsPerSec: 1_000_000_000})
	b.OnFrame = func(Frame) {}
	rng := rand.New(rand.NewSource(5))
	// Some arrivals come late or twice, so they go to the heap.
	n.SetFrameControlHook(func(_, _ string, _ Frame) FrameControl {
		switch rng.Intn(8) {
		case 0:
			return FrameControl{Delay: Duration(rng.Intn(5000))}
		case 1:
			return FrameControl{Dup: true, DupDelay: Duration(rng.Intn(5000))}
		}
		return FrameControl{}
	})
	high, heapHigh := 0, 0
	var laneHigh [numLanes]int
	sample := func() {
		high, heapHigh = max(high, s.Pending()), max(heapHigh, len(s.heap))
		for i := range s.lanes {
			laneHigh[i] = max(laneHigh[i], s.lanes[i].n)
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
				if rng.Intn(2) == 0 {
					a.SendBuf(buf.Bytes(), buf)
				} else { // sends after a delay, some of them out of order
					n.SendBufAfter(a.att, 0, buf.Bytes(), buf, Duration(rng.Intn(3000)))
				}
			case 1:
				s.Schedule(Duration(rng.Intn(5000)), func() {
					s.Schedule(Duration(rng.Intn(5000)), func() {})
				})
			case 2:
				tm := s.AfterFunc(Duration(rng.Intn(5000)), func() {})
				sample()
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
	if len(s.slab) != heapHigh || heapHigh > high {
		t.Fatalf("slab holds %d slots; most events in the heap %d, high-water mark of Pending() %d", len(s.slab), heapHigh, high)
	}
	if len(s.free) != len(s.slab) {
		t.Fatalf("%d of %d slots free after a drain", len(s.free), len(s.slab))
	}
	for i := range s.slab {
		if !reflect.ValueOf(s.slab[i]).IsZero() {
			t.Fatalf("slot %d not cleared: %+v", i, s.slab[i])
		}
	}
	for i := range s.lanes {
		l := &s.lanes[i]
		want := minLane
		for want < laneHigh[i] {
			want *= 2
		}
		if laneHigh[i] == 0 || laneHigh[i] > high || len(l.ring) != want || l.n != 0 {
			t.Fatalf("lane %d: ring of %d holding %d after a drain; it held at most %d (want a ring of %d), Pending() %d",
				i, len(l.ring), l.n, laneHigh[i], want, high)
		}
		for j := range l.ring {
			if !reflect.ValueOf(l.ring[j]).IsZero() {
				t.Fatalf("lane %d entry %d not cleared: %+v", i, j, l.ring[j])
			}
		}
	}
	if heapHigh == high {
		t.Fatal("no frame event ever waited in a lane")
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

// BenchmarkSim_FrameLanes is one frame's two events, a send after a
// pipeline delay and its arrival, with some 16 frames in flight over
// two links. In order: one delay and one latency, so every event
// takes its lane. Out of order: delays drawn from 1–1000 ns and links of
// 2 and 3 µs, so sends and arrivals that come out of time order fall
// back to the heap.
func BenchmarkSim_FrameLanes(b *testing.B) {
	for _, tc := range []struct {
		name     string
		spread   int
		latency2 Duration
	}{{"in-order", 1, 2 * Microsecond}, {"out-of-order", 1000, 3 * Microsecond}} {
		b.Run(tc.name, func(b *testing.B) {
			s := NewSim(1)
			n := NewNetwork(s)
			var atts []*Attachment
			for i, lat := range []Duration{2 * Microsecond, tc.latency2} {
				from, err1 := NewHost(n, fmt.Sprint("from", i))
				to, err2 := NewHost(n, fmt.Sprint("to", i))
				if err := errors.Join(err1, err2, n.Connect(from, 0, to, 0, LinkConfig{Latency: lat})); err != nil {
					b.Fatal(err)
				}
				to.OnFrame = func(Frame) {}
				atts = append(atts, from.att)
			}
			rng := rand.New(rand.NewSource(1))
			delays := make([]Duration, 4096)
			for i := range delays {
				delays[i] = Duration(1 + rng.Intn(tc.spread))
			}
			fr := Frame("lane")
			i := 0
			send := func() {
				n.SendBufAfter(atts[i&1], 0, fr, nil, delays[i&4095])
				i++
			}
			for range 16 {
				send()
			}
			frame := func() {
				send()
				s.Step()
				s.Step()
			}
			for range 10_000 { // rings, slab and heap at their steady size
				frame()
			}
			if allocs := testing.AllocsPerRun(1000, frame); allocs != 0 {
				b.Fatalf("a frame's two events allocate %v, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				frame()
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
