package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/wire"
)

// arming is one push the order test made: the instant it is due, its
// place in the global push order (what Sim.seq counts), and whether it
// should still fire.
type arming struct {
	at    Time
	n     int
	fired bool
	dead  bool // stopped or superseded before it fired
}

// TestHeapPopsInPushOrder drives random closures, timers and daemon
// timers — stopped, reset and re-armed between bursts of RunFor, and
// scheduling more work from inside their callbacks — and checks that
// exactly the live armings fire, each at its instant, in strictly
// increasing (at, push order).
func TestHeapPopsInPushOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim(seed)
		var armings []*arming
		var fired []*arming
		arm := func(d Duration) *arming {
			a := &arming{at: s.Now().Add(d), n: len(armings)}
			armings = append(armings, a)
			return a
		}
		fire := func(a *arming) {
			if s.Now() != a.at {
				t.Fatalf("seed %d: arming %d due at %d fired at %d", seed, a.n, a.at, s.Now())
			}
			a.fired = true
			fired = append(fired, a)
		}
		delay := func() Duration { return Duration(rng.Intn(40)) } // few distinct instants: many ties

		type timer struct {
			tm  *Timer
			cur *arming
		}
		var timers []*timer
		newTimer := func(daemon bool) {
			tr := &timer{}
			tr.cur = arm(delay())
			fn := func() { fire(tr.cur) }
			d := tr.cur.at.Sub(s.Now())
			if daemon {
				tr.tm = s.AfterFuncDaemon(d, fn).(*Timer)
			} else {
				tr.tm = s.AfterFunc(d, fn).(*Timer)
			}
			timers = append(timers, tr)
		}
		var schedule func(depth int)
		schedule = func(depth int) {
			a := arm(delay())
			s.Schedule(a.at.Sub(s.Now()), func() {
				fire(a)
				if depth < 3 && rng.Intn(2) == 0 {
					schedule(depth + 1)
				}
			})
		}

		for burst := 0; burst < 30; burst++ {
			for i := rng.Intn(20); i > 0; i-- {
				switch op := rng.Intn(6); {
				case op == 0:
					newTimer(false)
				case op == 1:
					newTimer(true)
				case op == 2 && len(timers) > 0:
					tr := timers[rng.Intn(len(timers))]
					tr.tm.Stop()
					tr.cur.dead = !tr.cur.fired
				case op == 3 && len(timers) > 0:
					tr := timers[rng.Intn(len(timers))]
					tr.cur.dead = !tr.cur.fired
					tr.cur = arm(delay())
					tr.tm.Reset(tr.cur.at.Sub(s.Now()))
				default:
					schedule(0)
				}
			}
			s.RunFor(Duration(rng.Intn(25)))
		}
		s.Run()
		if s.foreground != 0 {
			t.Fatalf("seed %d: Run left %d foreground events", seed, s.foreground)
		}
		s.RunFor(100) // flush the daemon timers Run does not wait for
		if s.Pending() != 0 {
			t.Fatalf("seed %d: %d events still pending", seed, s.Pending())
		}

		for i, a := range fired {
			if a.dead {
				t.Fatalf("seed %d: arming %d fired after it was stopped or superseded", seed, a.n)
			}
			if i > 0 {
				p := fired[i-1]
				if a.at < p.at || a.at == p.at && a.n <= p.n {
					t.Fatalf("seed %d: (at %d, push %d) fired after (at %d, push %d)",
						seed, a.at, a.n, p.at, p.n)
				}
			}
		}
		live := 0
		for _, a := range armings {
			if !a.dead {
				live++
			}
		}
		if len(fired) != live {
			t.Fatalf("seed %d: %d armings fired, %d were live", seed, len(fired), live)
		}
	}
}

// TestStaleGenerationInRecycledSlot: a firing that Reset superseded
// stays queued; by the time it pops, the slot its successor used has
// been freed and handed to other events, and the timer may be armed
// again. None of that may make the stale firing run the callback.
func TestStaleGenerationInRecycledSlot(t *testing.T) {
	s := NewSim(1)
	var at []Time
	tm := s.AfterFunc(100, func() { at = append(at, s.Now()) }).(*Timer) // generation 0, due at 100
	tm.Reset(10)                                                         // generation 1, due at 10
	s.RunUntil(10)
	// Generation 1 fired and freed its slot; these reuse it.
	others := 0
	s.Schedule(90, func() { others++ })
	s.AfterFunc(90, func() { others++ })
	s.RunUntil(20)
	tm.Reset(180) // generation 2, due at 200, armed while generation 0 is still queued
	s.Run()
	if fmt.Sprint(at) != "[10 200]" || others != 2 {
		t.Fatalf("timer fired at %v (want [10 200]), %d of 2 bystanders ran", at, others)
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
// a fixed depth: 16 is a quiet simulation, 1024 one with a retransmit
// timer parked behind every recent operation.
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
