package transport

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// The small-scope exhaustive check: endpoint a sends b three reliable
// frames and one request, b answers the request with a kept response,
// and every schedule of up to three perturbations of the
// first scopePositions link transmissions runs to quiescence. Each run
// is held to the reference model below and to the transport's
// step-by-step invariants.

// perturbation is what one link transmission suffers.
type perturbation uint8

const (
	pDrop    perturbation = iota
	pDup                  // a second copy, back to back
	pTick                 // one tick late: reordered with its instant's frames
	pPastRTO              // later than the retransmit timeout: it goes again first
	// pLoseThenDup drops this transmission and sends the next one twice:
	// a lost response, then a duplicated retransmission of its request.
	pLoseThenDup
	numPerturbations
)

func (p perturbation) control() netsim.FrameControl {
	switch p {
	case pDrop, pLoseThenDup:
		return netsim.FrameControl{Drop: true}
	case pDup:
		return netsim.FrameControl{Dup: true}
	case pTick:
		return netsim.FrameControl{Delay: netsim.Nanosecond}
	}
	return netsim.FrameControl{Delay: 300 * netsim.Microsecond}
}

const (
	scopePositions = 10 // transmissions a schedule may perturb
	scopeDepth     = 3  // perturbations per schedule
)

// scopeFrames are a's reliable sends; the request is scopeRequest.
var scopeFrames = []string{"f0", "f1", "f2"}

const scopeRequest = "q"

// scopeModel is the reference: what each of a's frames and the request
// come to, whatever the schedule. Three perturbations cannot outlast a
// RetryBudget that fits five attempts, so each frame is dispatched
// exactly once and acked, and the request is answered once. A frame
// below b's replay window is never dispatched, so with b's window for a
// pushed past a's numbers every frame retries out and the request
// times out.
func scopeModel(belowWindow bool) (dispatches int, frameErr, answerErr error) {
	if belowWindow {
		return 0, ErrRetriesOut, ErrTimeout
	}
	return 1, nil, nil
}

// scopeRun runs one schedule and returns what broke, if anything.
func scopeRun(sched map[int]perturbation, belowWindow bool) []string {
	base := dataplane.LiveBufs()
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	ha, _ := netsim.NewHost(net, "a")
	hb, _ := netsim.NewHost(net, "b")
	if err := net.Connect(ha, 0, hb, 0, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}); err != nil {
		return []string{err.Error()}
	}
	a, b := NewEndpoint(ha, 1, Config{}), NewEndpoint(hb, 2, Config{})
	var broke []string
	fail := func(format string, args ...any) { broke = append(broke, fmt.Sprintf(format, args...)) }

	dispatched := map[string]int{}
	b.SetHandler(func(h *wire.Header, p []byte) {
		dispatched[string(p)]++
		if string(p) == scopeRequest {
			b.Respond(h, wire.Header{Type: wire.MsgMem}, []byte("re:"+scopeRequest))
		}
	})
	if belowWindow {
		far := wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2, Seq: 3 * dedupWindow}
		fr, _ := wire.Encode(&far, nil)
		b.onFrame(fr) // b has heard from a far past every number a will use
		delete(dispatched, "")
	}
	n, dupNext := 0, false
	net.SetFrameControlHook(func(_, _ string, _ netsim.Frame) netsim.FrameControl {
		p, ok := sched[n]
		n++
		if !ok {
			p, ok = pDup, dupNext
		}
		dupNext = ok && p == pLoseThenDup
		if !ok {
			return netsim.FrameControl{}
		}
		return p.control()
	})

	done := map[string][]error{}
	var answers []error
	for i, name := range scopeFrames {
		sim.Schedule(backend.Duration(i)*20*netsim.Microsecond, func() {
			a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte(name),
				func(err error) { done[name] = append(done[name], err) })
		})
	}
	sim.Schedule(backend.Duration(len(scopeFrames))*20*netsim.Microsecond, func() {
		a.Request(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte(scopeRequest), 0,
			func(_ *wire.Header, p []byte, err error) {
				if err == nil && string(p) != "re:"+scopeRequest {
					fail("the request was answered with %q", p)
				}
				answers = append(answers, err)
			})
	})
	for sim.Step() {
		// An owed ack lives only while its frame is being dispatched.
		if a.ackOwed || b.ackOwed {
			fail("an owed ack outlived its frame at %v", sim.Now())
		}
	}

	wantDispatches, frameErr, answerErr := scopeModel(belowWindow)
	for _, name := range append(scopeFrames, scopeRequest) {
		if dispatched[name] != wantDispatches {
			fail("%s dispatched %d times, want %d", name, dispatched[name], wantDispatches)
		}
	}
	for _, name := range scopeFrames {
		if errs := done[name]; len(errs) != 1 || !errors.Is(errs[0], frameErr) || (frameErr == nil) != (errs[0] == nil) {
			fail("%s completed with %v, want once with %v", name, errs, frameErr)
		}
	}
	if len(answers) != 1 || !errors.Is(answers[0], answerErr) || (answerErr == nil) != (answers[0] == nil) {
		fail("the request's callback ran with %v, want once with %v", answers, answerErr)
	}
	if a.PendingFrames()+a.PendingRequests()+b.PendingFrames()+int(b.Counters().RepliesKept) != 0 {
		fail("state left at quiescence: a %d frames, %d requests; b %d frames, %d replies kept",
			a.PendingFrames(), a.PendingRequests(), b.PendingFrames(), b.Counters().RepliesKept)
	}
	if live := dataplane.LiveBufs(); live != base {
		fail("LiveBufs = %d at quiescence, %d before", live, base)
	}
	return broke
}

// TestSmallScopeExhaustive runs every schedule of up to scopeDepth
// perturbations (two under -short) of the first scopePositions
// transmissions, with b's replay window where a's frames start and
// pushed past them.
func TestSmallScopeExhaustive(t *testing.T) {
	depth := scopeDepth
	if testing.Short() {
		depth = 2
	}
	runs := 0
	var walk func(from int, sched map[int]perturbation)
	walk = func(from int, sched map[int]perturbation) {
		for _, below := range []bool{false, true} {
			runs++
			if broke := scopeRun(sched, below); len(broke) > 0 {
				t.Fatalf("schedule %v (b's window past a's frames: %v):\n%v", sched, below, broke)
			}
		}
		if len(sched) == depth {
			return
		}
		for pos := from; pos < scopePositions; pos++ {
			for p := range numPerturbations {
				sched[pos] = p
				walk(pos+1, sched)
				delete(sched, pos)
			}
		}
	}
	walk(0, map[int]perturbation{})
	t.Logf("%d runs", runs)
}

// TestLostHeadIsNotStarved: the oldest frame's first transmission is
// lost while later frames keep being sent and acked. Their acks must
// not push the timer back (§5.3 restarts it only when the oldest frame
// is acked), so the lost frame goes again one timeout after it was
// sent, not once the stream stops — well inside the RetryBudget.
func TestLostHeadIsNotStarved(t *testing.T) {
	net, ha, hb := hosts(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond})
	sim, a, b := net.Sim(), NewEndpoint(ha, 1, Config{}), NewEndpoint(hb, 2, Config{})
	b.SetHandler(func(*wire.Header, []byte) {})
	lost := false
	net.SetFrameControlHook(func(from, _ string, fr netsim.Frame) netsim.FrameControl {
		var h wire.Header
		if lost || from != "a" || h.DecodeFrom(fr) != nil || string(wire.Payload(fr)) != "head" {
			return netsim.FrameControl{}
		}
		lost = true
		return netsim.FrameControl{Drop: true}
	})
	headErr := errors.New("never acked")
	var headAt netsim.Time
	a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("head"), func(err error) {
		headErr, headAt = err, sim.Now()
	})
	// A later frame every 20µs for 3ms: an ack from b lands every 20µs.
	for i := 1; i <= 150; i++ {
		sim.Schedule(backend.Duration(i)*20*netsim.Microsecond, func() {
			a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("later"), nil)
		})
	}
	sim.Run()
	// The floor, the per-byte allowance for a few small frames in
	// flight, and the retransmission's round trip.
	if headErr != nil || headAt > netsim.Time(250*netsim.Microsecond) || a.Counters().Retransmits != 1 {
		t.Fatalf("lost head: %v at %v after %d retransmits; want acked by 250µs after 1",
			headErr, headAt, a.Counters().Retransmits)
	}
}
