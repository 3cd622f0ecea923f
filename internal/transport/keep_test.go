package transport

import (
	"errors"
	"testing"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// echo makes b answer every request with its payload.
func echo(b *Endpoint) {
	b.SetHandler(func(h *wire.Header, p []byte) {
		if h.Flags&wire.FlagReliable != 0 {
			b.Respond(h, wire.Header{Type: wire.MsgMem}, p)
		}
	})
}

// ask sends b (station 2, or StationAny) one request and returns where
// its outcome lands.
func ask(t *testing.T, a *Endpoint, dst wire.StationID, payload []byte) *error {
	t.Helper()
	err := errors.New("no answer")
	if _, e := a.Request(wire.Header{Type: wire.MsgMem, Dst: dst}, payload, 0,
		func(_ *wire.Header, _ []byte, e error) { err = e }); e != nil {
		t.Fatal(e)
	}
	return &err
}

// TestMarkReleasesKeptReply: a reply is kept while the requester's
// mark is at or below its request, and released by the first frame
// whose mark passes it, before any tell.
func TestMarkReleasesKeptReply(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}, Config{})
	echo(b)
	// An older frame that nothing acks holds a's mark below the request.
	a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 9}, nil, nil)
	answer := ask(t, a, 2, []byte("q"))
	sim.Schedule(20*netsim.Microsecond, func() { a.Send(wire.Header{Type: wire.MsgMem, Dst: 2}, nil) })
	sim.RunUntil(netsim.Time(30 * netsim.Microsecond))
	if *answer != nil || b.Counters().RepliesKept != 1 {
		t.Fatalf("answer %v, %d replies kept; want the answer and the reply kept under a's mark", *answer, b.Counters().RepliesKept)
	}
	for a.PendingFrames() > 0 && sim.Step() {
	}
	// The old frame retried out: the next frame's mark passes the request.
	a.Send(wire.Header{Type: wire.MsgMem, Dst: 2}, nil)
	sim.RunFor(10 * netsim.Microsecond)
	if kept, acks := b.Counters().RepliesKept, a.Counters().AcksSent; kept != 0 || acks != 0 {
		t.Fatalf("%d replies kept, %d acks (tells) sent; want the mark to release the reply", kept, acks)
	}
	sim.Run()
}

// TestQuietRequesterTellsItsMark: a requester with no frame open tells
// the station holding its reply its mark once, one RetransmitTimeout
// after its last frame closed, and a busy spell puts the tell off.
func TestQuietRequesterTellsItsMark(t *testing.T) {
	net, ha, hb := hosts(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond})
	sim, a, b := net.Sim(), NewEndpoint(ha, 1, Config{}), NewEndpoint(hb, 2, Config{})
	echo(b)
	var tells []netsim.Time
	net.SetFrameControlHook(func(from, _ string, fr netsim.Frame) netsim.FrameControl {
		var h wire.Header
		if from == "a" && h.DecodeFrom(fr) == nil && h.Type == wire.MsgAck && h.Flags&wire.FlagLowWater != 0 {
			tells = append(tells, sim.Now())
		}
		return netsim.FrameControl{}
	})
	for i, at := range []netsim.Duration{0, 400 * netsim.Microsecond} {
		sim.Schedule(at, func() { ask(t, a, 2, []byte("q")) })
		if i == 1 {
			// A frame acked 100µs after the answer: quiet from 110µs on.
			sim.Schedule(at+100*netsim.Microsecond, func() {
				a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, nil, nil)
			})
		}
	}
	sim.Run()
	rto := Config{}
	rto.fill()
	want := []netsim.Time{
		netsim.Time(10*netsim.Microsecond + rto.RetransmitTimeout),
		netsim.Time(510*netsim.Microsecond + rto.RetransmitTimeout),
	}
	if len(tells) != 2 || tells[0] != want[0] || tells[1] != want[1] {
		t.Fatalf("tells at %v, want %v", tells, want)
	}
	if c := b.Counters(); c.RepliesKept != 0 || c.RepliesResent != 0 {
		t.Fatalf("responder %+v", c)
	}
}

// TestKeptReplyOutlivesACrashedRequesterByTwoBudgets: a requester that
// crashes tells no mark; its reply is dropped once no retransmission of
// its request can come, two retry budgets after it was sent.
func TestKeptReplyOutlivesACrashedRequesterByTwoBudgets(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}, Config{})
	echo(b)
	answer := ask(t, a, 2, []byte("q"))
	sim.RunUntil(netsim.Time(10 * netsim.Microsecond))
	if *answer != nil {
		t.Fatal(*answer)
	}
	a.Reset()
	budget := Config{}
	budget.fill()
	kept := netsim.Time(5*netsim.Microsecond + 2*budget.RetryBudget)
	sim.RunUntil(kept - 1)
	if n := b.Counters().RepliesKept; n != 1 {
		t.Fatalf("%d replies kept just short of two budgets, want 1", n)
	}
	sim.Run()
	if n := b.Counters().RepliesKept; n != 0 || sim.Now() != kept {
		t.Fatalf("%d replies kept when the drain ended at %v, want 0 at %v", n, sim.Now(), kept)
	}
}

// TestResetReleasesKeptReplies: a responder's crash abandons its kept
// replies, buffers and sweep with them.
func TestResetReleasesKeptReplies(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}, Config{})
	echo(b)
	for range 3 {
		ask(t, a, 2, []byte("q"))
	}
	sim.RunUntil(netsim.Time(10 * netsim.Microsecond))
	if n := b.Counters().RepliesKept; n != 3 {
		t.Fatalf("%d replies kept, want 3", n)
	}
	b.Reset()
	if n := b.Counters().RepliesKept; n != 0 {
		t.Fatalf("%d replies kept after Reset", n)
	}
	sim.Run() // a's tell finds nothing kept, and no sweep is left to run
	if sim.Now() > netsim.Time(netsim.Millisecond) {
		t.Fatalf("the drain ended at %v: a sweep outlived the Reset", sim.Now())
	}
}

// TestJumboResponseStaysReliable: a response longer than a standard
// frame is not kept; it goes reliably behind its request's ack, and the
// requester acks it.
func TestJumboResponseStaysReliable(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}, Config{})
	echo(b)
	answer := ask(t, a, 2, make([]byte, implicitAckMaxFrame))
	sim.Run()
	ac, bc := a.Counters(), b.Counters()
	if *answer != nil || bc.RepliesKept != 0 || bc.AcksSent != 1 || ac.AcksSent != 1 || ac.AcksReceived != 1 || b.PendingFrames() != 0 {
		t.Fatalf("answer %v\nrequester %+v\nresponder %+v", *answer, ac, bc)
	}
}

// TestStationAnyMarkIsEndpointWide: a StationAny request's response is
// lost, and before the request goes again its requester sends the home
// a frame of its own. That frame's mark is the endpoint's oldest open
// frame, the request, not the oldest in the home's own ring: the home
// keeps the reply, and the retransmitted request gets it.
func TestStationAnyMarkIsEndpointWide(t *testing.T) {
	net, ha, hb := hosts(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond})
	sim, a, b := net.Sim(), NewEndpoint(ha, 1, Config{}), NewEndpoint(hb, 2, Config{})
	lost := false
	b.SetHandler(func(h *wire.Header, p []byte) {
		if h.Flags&wire.FlagReliable == 0 || string(p) != "q" {
			return
		}
		net.SetLinkDown(hb, 0, !lost)
		b.Respond(h, wire.Header{Type: wire.MsgMem}, p)
		net.SetLinkDown(hb, 0, false)
		lost = true
	})
	answer := ask(t, a, wire.StationAny, []byte("q"))
	sim.Schedule(50*netsim.Microsecond, func() {
		a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("direct"), nil)
	})
	sim.Run()
	if bc := b.Counters(); *answer != nil || bc.RepliesResent != 1 || bc.AcksSent != 1 {
		t.Fatalf("answer %v, responder %+v; want the kept reply resent", *answer, bc)
	}
}

// TestRequestRetriesForBothLegs: a request's retransmissions recover a
// lost response as well as a lost request, so its frame goes on for a
// retry budget per leg. Here the request gets through only at its
// fourth transmission, 70µs into a 100µs budget, and its response is
// lost; the fifth, past one budget, fetches the kept reply.
func TestRequestRetriesForBothLegs(t *testing.T) {
	net, ha, hb := hosts(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond})
	cfg := Config{RetransmitTimeout: 10 * netsim.Microsecond, RetryBudget: 100 * netsim.Microsecond}
	sim, a, b := net.Sim(), NewEndpoint(ha, 1, cfg), NewEndpoint(hb, 2, cfg)
	echo(b)
	responses := 0
	net.SetFrameControlHook(func(from, _ string, _ netsim.Frame) netsim.FrameControl {
		if from == "b" {
			responses++
		}
		return netsim.FrameControl{Drop: from == "a" && sim.Now() < netsim.Time(60*netsim.Microsecond) || from == "b" && responses == 1}
	})
	answer := ask(t, a, 2, []byte("q"))
	sim.Run()
	if *answer != nil || a.Counters().Retransmits != 4 || b.Counters().RepliesResent != 1 {
		t.Fatalf("answer %v after %d retransmits, %d replies resent; want it after 4 and 1",
			*answer, a.Counters().Retransmits, b.Counters().RepliesResent)
	}
}
