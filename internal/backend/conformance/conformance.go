// Package conformance is the executable contract of backend.Link and
// backend.Clock: a test suite every backend implementation must pass,
// run by both internal/netsim and internal/realnet. It pins the
// properties the transport layer leans on — per-link FIFO delivery,
// SendBuf reference-count balance, and clock/timer monotonicity — so
// a new backend cannot silently weaken them.
package conformance

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/wire"
)

// Fixture is one backend instance under test: two links wired
// together, plus backend-specific time progression and teardown.
type Fixture struct {
	// A and B are connected links; frames sent on A addressed to StB
	// arrive at B, and vice versa; B's side is touched only in B.Exec.
	A, B backend.Link
	// StA and StB are the wire stations of A and B.
	StA, StB wire.StationID
	// Settle lets the backend make progress for about d: the simulator
	// drains its event queue through d of virtual time; realnet sleeps
	// d of wall time while reader goroutines deliver.
	Settle func(d backend.Duration)
	// Close tears the fixture down (may be nil).
	Close func()
}

// Run executes the whole suite against fixtures built by mk. Each
// subtest gets a fresh fixture.
func Run(t *testing.T, mk func(t *testing.T) *Fixture) {
	t.Run("OrderedDelivery", func(t *testing.T) { testOrderedDelivery(t, mk(t)) })
	t.Run("RefcountBalance", func(t *testing.T) { testRefcountBalance(t, mk(t)) })
	t.Run("ClockMonotonic", func(t *testing.T) { testClockMonotonic(t, mk(t)) })
	t.Run("TimerFiresAndStops", func(t *testing.T) { testTimerFiresAndStops(t, mk(t)) })
	t.Run("TimerResetSupersedes", func(t *testing.T) { testTimerResetSupersedes(t, mk(t)) })
	t.Run("MTUAgreement", func(t *testing.T) { testMTUAgreement(t, mk(t)) })
}

// Frame builds a minimal valid wire frame from src to dst whose
// payload carries seq (so receivers can check ordering without
// trusting header plumbing; the header's Seq carries it too). Exported
// for the tests a fixture's own package adds beside Run.
func Frame(t *testing.T, src, dst wire.StationID, seq uint64) backend.Frame {
	t.Helper()
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], seq)
	fr, err := wire.Encode(&wire.Header{
		Type: wire.MsgMem, Src: src, Dst: dst, Seq: seq,
		PayloadLen: uint32(len(payload)),
	}, payload[:])
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return fr
}

// settleUntil settles in small steps until cond, which reads l's side,
// holds or the budget runs out; backends deliver at different speeds.
func settleUntil(fx *Fixture, l backend.Link, cond func() bool) {
	const step = 2 * backend.Millisecond
	for i := 0; i < 500; i++ {
		var ok bool
		l.Exec(func() { ok = cond() })
		if ok {
			return
		}
		fx.Settle(step)
	}
}

// testOrderedDelivery pins per-link FIFO: frames sent back-to-back on
// one link arrive at the peer complete and in send order. (The
// transport's cumulative-ack scheme assumes reordering is the rare
// case; both the simulator's queueing model and loopback UDP keep
// same-link frames in order.)
func testOrderedDelivery(t *testing.T, fx *Fixture) {
	if fx.Close != nil {
		defer fx.Close()
	}
	const n = 64
	var got []uint64
	fx.B.Exec(func() {
		fx.B.SetOnFrame(func(fr backend.Frame) {
			pl := wire.Payload(fr)
			if len(pl) < 8 {
				t.Errorf("short payload: %d bytes", len(pl))
				return
			}
			got = append(got, binary.BigEndian.Uint64(pl))
		})
	})
	fx.A.Exec(func() {
		for i := uint64(0); i < n; i++ {
			fx.A.SendBuf(Frame(t, fx.StA, fx.StB, i), nil)
		}
	})
	settleUntil(fx, fx.B, func() bool { return len(got) >= n })

	var final []uint64
	fx.B.Exec(func() { final = append(final, got...) })
	if len(final) != n {
		t.Fatalf("delivered %d of %d frames", len(final), n)
	}
	for i, seq := range final {
		if seq != uint64(i) {
			t.Fatalf("frame %d arrived out of order: seq %d", i, seq)
		}
	}
}

// CountBuf counts Retain/Release on the buffer every frame of a test
// shares.
type CountBuf struct {
	Retains  atomic.Int64
	Releases atomic.Int64
}

func (b *CountBuf) Retain()  { b.Retains.Add(1) }
func (b *CountBuf) Release() { b.Releases.Add(1) }

// testRefcountBalance pins SendBuf's ownership contract: each call
// consumes exactly one reference on buf — released after delivery or
// drop — plus one release per extra Retain the backend took. After
// quiescence, releases == sends + retains, whether the frame was
// deliverable (addressed to the peer) or not (unknown station).
func testRefcountBalance(t *testing.T, fx *Fixture) {
	if fx.Close != nil {
		defer fx.Close()
	}
	fx.B.Exec(func() { fx.B.SetOnFrame(func(backend.Frame) {}) })
	const deliverable, undeliverable = 32, 8
	buf := &CountBuf{}
	fx.A.Exec(func() {
		for i := uint64(0); i < deliverable; i++ {
			fx.A.SendBuf(Frame(t, fx.StA, fx.StB, i), buf)
		}
		for i := uint64(0); i < undeliverable; i++ {
			// Station 0x7eef is nobody; backends must still release.
			fx.A.SendBuf(Frame(t, fx.StA, wire.StationID(0x7eef), i), buf)
		}
	})
	const sends = deliverable + undeliverable
	settleUntil(fx, fx.A, func() bool {
		return buf.Releases.Load() >= sends+buf.Retains.Load()
	})
	if rel, want := buf.Releases.Load(), sends+buf.Retains.Load(); rel != want {
		t.Fatalf("refcount imbalance: %d sends + %d retains but %d releases",
			sends, buf.Retains.Load(), rel)
	}
}

// testMTUAgreement pins the fragment-sizing contract: both ends of a
// link report the same MTU, and a nonzero MTU leaves usable payload
// room past the wire header.
func testMTUAgreement(t *testing.T, fx *Fixture) {
	if fx.Close != nil {
		defer fx.Close()
	}
	ma, mb := fx.A.MTU(), fx.B.MTU()
	if ma != mb {
		t.Fatalf("MTU disagreement: A=%d B=%d", ma, mb)
	}
	if ma < 0 {
		t.Fatalf("negative MTU %d", ma)
	}
	if ma > 0 && ma < wire.HeaderSize+64 {
		t.Fatalf("MTU %d leaves no payload room past the %d-byte header", ma, wire.HeaderSize)
	}
}

// testClockMonotonic pins that Now never runs backwards, including
// across timer callbacks and Settle boundaries.
func testClockMonotonic(t *testing.T, fx *Fixture) {
	if fx.Close != nil {
		defer fx.Close()
	}
	clock := fx.A.Clock()
	var last backend.Time
	fx.A.Exec(func() { last = clock.Now() })
	check := func(where string) {
		now := clock.Now()
		if now < last {
			t.Errorf("%s: clock ran backwards: %v after %v", where, now, last)
		}
		last = now
	}
	fired := 0
	fx.A.Exec(func() {
		for i := 1; i <= 5; i++ {
			clock.AfterFunc(backend.Duration(i)*backend.Millisecond, func() {
				check("timer callback")
				fired++
			})
		}
	})
	settleUntil(fx, fx.A, func() bool { return fired >= 5 })
	fx.A.Exec(func() { check("after settle") })
	if fired != 5 {
		t.Fatalf("fired %d of 5 timers", fired)
	}
}

// testTimerFiresAndStops pins AfterFunc semantics: a timer fires no
// earlier than its delay, Stop before firing prevents the callback
// and returns true, and Stop after firing returns false.
func testTimerFiresAndStops(t *testing.T, fx *Fixture) {
	if fx.Close != nil {
		defer fx.Close()
	}
	clock := fx.A.Clock()
	const delay = 5 * backend.Millisecond

	var start, firedAt backend.Time
	var fired, stoppedFired bool
	var stopped backend.Timer
	fx.A.Exec(func() {
		start = clock.Now()
		clock.AfterFunc(delay, func() {
			fired = true
			firedAt = clock.Now()
		})
		stopped = clock.AfterFunc(delay, func() { stoppedFired = true })
		if !stopped.Stop() {
			t.Error("Stop before firing returned false")
		}
	})
	settleUntil(fx, fx.A, func() bool { return fired })
	fx.A.Exec(func() {
		if !fired {
			t.Fatal("timer never fired")
		}
		if elapsed := firedAt.Sub(start); elapsed < delay {
			t.Errorf("timer fired after %v, before its %v delay", elapsed, delay)
		}
		if stoppedFired {
			t.Error("stopped timer fired anyway")
		}
		if stopped.Stop() {
			t.Error("second Stop returned true")
		}
	})
}

// testTimerResetSupersedes pins backend.ResettableTimer, which both
// backends' timers must implement: a Reset before the firing replaces
// it — one firing, no earlier than the new delay after the Reset,
// whether that is later or sooner than the old one — a Reset after Stop
// or after the firing arms the timer again, and re-arming in place is
// free: the retransmit and request timers do it once per operation.
func testTimerResetSupersedes(t *testing.T, fx *Fixture) {
	if fx.Close != nil {
		defer fx.Close()
	}
	clock := fx.A.Clock()
	const short, long = 2 * backend.Millisecond, 8 * backend.Millisecond

	type probe struct {
		name    string
		timer   backend.ResettableTimer
		notTill backend.Time // no firing may come before this
		want    int
		fired   []backend.Time
	}
	arm := func(name string, d backend.Duration) *probe {
		p := &probe{name: name}
		tm := clock.AfterFunc(d, func() { p.fired = append(p.fired, clock.Now()) })
		var ok bool
		if p.timer, ok = tm.(backend.ResettableTimer); !ok {
			t.Fatalf("%T does not implement backend.ResettableTimer", tm)
		}
		return p
	}
	reset := func(p *probe, d backend.Duration, wantPending bool) {
		p.want++
		p.notTill = clock.Now().Add(d)
		if pending := p.timer.Reset(d); pending != wantPending {
			t.Errorf("%s: Reset reported pending=%v, want %v", p.name, pending, wantPending)
		}
	}
	var later, sooner, revived, again *probe
	fx.A.Exec(func() {
		later = arm("short reset to long", short)
		reset(later, long, true)
		sooner = arm("long reset to short", long)
		reset(sooner, short, true)
		revived = arm("stopped, then reset", long)
		revived.timer.Stop()
		reset(revived, short, false)
		again = arm("fired, then reset", short)
		again.want, again.notTill = 1, clock.Now().Add(short)
	})
	probes := []*probe{later, sooner, revived, again}
	settleUntil(fx, fx.A, func() bool { return len(again.fired) == 1 })
	fx.A.Exec(func() { reset(again, short, false) })
	settleUntil(fx, fx.A, func() bool {
		for _, p := range probes {
			if len(p.fired) < p.want {
				return false
			}
		}
		return true
	})
	fx.Settle(2 * long) // room for a superseded firing to show itself
	fx.A.Exec(func() {
		for _, p := range probes {
			if len(p.fired) != p.want {
				t.Errorf("%s: fired %d times, want %d", p.name, len(p.fired), p.want)
			} else if last := p.fired[len(p.fired)-1]; last < p.notTill {
				t.Errorf("%s: fired at %v, before %v", p.name, last, p.notTill)
			}
		}
		if allocs := testing.AllocsPerRun(1000, func() {
			later.timer.Reset(long)
			later.timer.Stop()
		}); allocs != 0 {
			t.Errorf("a Reset/Stop cycle allocates %v times, want 0", allocs)
		}
	})
}
