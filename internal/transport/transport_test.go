package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/backend"
	"repro/internal/dataplane"
	"repro/internal/gasperr"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// hosts wires two raw hosts over one link. Every test built on it
// must hand back each frame buffer it took by the time it ends.
func hosts(t *testing.T, link netsim.LinkConfig) (*netsim.Network, *netsim.Host, *netsim.Host) {
	t.Helper()
	live := dataplane.LiveBufs()
	t.Cleanup(func() {
		if got := dataplane.LiveBufs(); got != live {
			t.Errorf("LiveBufs = %d at the end, %d at the start", got, live)
		}
	})
	net := netsim.NewNetwork(netsim.NewSim(11))
	ha, err := netsim.NewHost(net, "a")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := netsim.NewHost(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(ha, 0, hb, 0, link); err != nil {
		t.Fatal(err)
	}
	return net, ha, hb
}

// pair wires two endpoints over one link.
func pair(t *testing.T, link netsim.LinkConfig, cfg Config) (*netsim.Sim, *Endpoint, *Endpoint) {
	t.Helper()
	net, ha, hb := hosts(t, link)
	return net.Sim(), NewEndpoint(ha, 1, cfg), NewEndpoint(hb, 2, cfg)
}

func TestUnreliableDelivery(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}, Config{})
	var got []byte
	b.SetHandler(func(h *wire.Header, payload []byte) {
		got = append([]byte(nil), payload...)
	})
	seq, err := a.Send(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("data"))
	if err != nil || seq == 0 {
		t.Fatalf("Send: seq=%d err=%v", seq, err)
	}
	sim.Run()
	if string(got) != "data" {
		t.Fatalf("got %q", got)
	}
	if b.Counters().Delivered != 1 {
		t.Fatalf("Delivered = %d", b.Counters().Delivered)
	}
}

func TestWrongDestinationIgnored(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{}, Config{})
	called := false
	b.SetHandler(func(*wire.Header, []byte) { called = true })
	a.Send(wire.Header{Type: wire.MsgMem, Dst: 42}, nil)
	sim.Run()
	if called {
		t.Fatal("frame for another station delivered")
	}
}

func TestBroadcastDelivered(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{}, Config{})
	called := false
	b.SetHandler(func(*wire.Header, []byte) { called = true })
	a.Send(wire.Header{Type: wire.MsgDiscover, Dst: wire.StationBroadcast}, nil)
	sim.Run()
	if !called {
		t.Fatal("broadcast not delivered")
	}
	if a.Counters().Broadcasts != 1 {
		t.Fatalf("Broadcasts = %d", a.Counters().Broadcasts)
	}
}

func TestReliableAck(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}, Config{})
	b.SetHandler(func(*wire.Header, []byte) {})
	var ackErr error
	acked := false
	a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("x"), func(err error) {
		acked, ackErr = true, err
	})
	sim.Run()
	if !acked || ackErr != nil {
		t.Fatalf("acked=%v err=%v", acked, ackErr)
	}
	if a.PendingFrames() != 0 {
		t.Fatalf("PendingFrames = %d", a.PendingFrames())
	}
	if a.Counters().Retransmits != 0 {
		t.Fatalf("Retransmits = %d on clean link", a.Counters().Retransmits)
	}
	if b.Counters().AcksSent != 1 || a.Counters().AcksReceived != 1 {
		t.Fatalf("acks: sent=%d received=%d", b.Counters().AcksSent, a.Counters().AcksReceived)
	}
}

func TestReliableBroadcastRejected(t *testing.T) {
	_, a, _ := pair(t, netsim.LinkConfig{}, Config{})
	if _, err := a.SendReliable(wire.Header{Dst: wire.StationBroadcast}, nil, nil); err == nil {
		t.Fatal("reliable broadcast accepted")
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	// 60% loss: retries should still get the frame through eventually.
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond, DropRate: 0.6},
		Config{
			RetransmitTimeout:    50 * netsim.Microsecond,
			MaxRetransmitTimeout: 200 * netsim.Microsecond,
			RetryBudget:          10 * netsim.Millisecond,
		})
	delivered := 0
	b.SetHandler(func(*wire.Header, []byte) { delivered++ })
	var ackErr error
	a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("x"), func(err error) { ackErr = err })
	sim.Run()
	if ackErr != nil {
		t.Fatalf("ack error: %v", ackErr)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d times (dedup should collapse retries)", delivered)
	}
	if a.Counters().Retransmits == 0 {
		t.Fatal("no retransmits under 60% loss")
	}
}

func TestRetriesExhausted(t *testing.T) {
	sim, a, _ := pair(t, netsim.LinkConfig{DropRate: 1.0},
		Config{RetransmitTimeout: 10 * netsim.Microsecond, RetryBudget: 100 * netsim.Microsecond})
	var got error
	a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, nil, func(err error) { got = err })
	sim.Run()
	if !errors.Is(got, ErrRetriesOut) {
		t.Fatalf("err = %v", got)
	}
	if a.PendingFrames() != 0 {
		t.Fatal("pending frame leaked")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Drop the ack path only cannot be configured per direction, so
	// simulate duplicates by hand: send the same encoded frame twice.
	sim, _, b := pair(t, netsim.LinkConfig{}, Config{})
	sim2 := sim // same network
	_ = sim2
	delivered := 0
	b.SetHandler(func(*wire.Header, []byte) { delivered++ })
	h := wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2, Seq: 77, Flags: wire.FlagReliable}
	fr, _ := wire.Encode(&h, nil)
	// Inject via b's host directly (bypassing endpoint a).
	b.onFrame(fr)
	b.onFrame(fr)
	sim.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if b.Counters().Duplicates != 1 {
		t.Fatalf("Duplicates = %d", b.Counters().Duplicates)
	}
	// Duplicate still acked so the sender can stop retrying.
	if b.Counters().AcksSent != 2 {
		t.Fatalf("AcksSent = %d, want 2", b.Counters().AcksSent)
	}
}

func TestRequestResponse(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}, Config{})
	b.SetHandler(func(h *wire.Header, payload []byte) {
		b.Respond(h, wire.Header{Type: wire.MsgMem}, append([]byte("re:"), payload...))
	})
	var got []byte
	var gotErr error
	start := sim.Now()
	var rttEnd netsim.Time
	a.Request(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("q"), 0,
		func(resp *wire.Header, payload []byte, err error) {
			got, gotErr = append([]byte(nil), payload...), err
			rttEnd = sim.Now()
		})
	sim.Run()
	if gotErr != nil || string(got) != "re:q" {
		t.Fatalf("resp = %q, %v", got, gotErr)
	}
	if rtt := rttEnd.Sub(start); rtt != 10*netsim.Microsecond {
		t.Fatalf("rtt = %v", rtt)
	}
	if a.PendingRequests() != 0 {
		t.Fatal("request leaked")
	}
}

// TestTwoPiecePayloads: every send has a (prefix, body) form whose
// frame is the one its namesake builds from the whole payload, and
// whose pieces are the caller's again when the call returns — a
// retransmission resends the frame, not the pieces.
func TestTwoPiecePayloads(t *testing.T) {
	net, ha, hb := hosts(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond})
	sim, a, b := net.Sim(), NewEndpoint(ha, 1, Config{}), NewEndpoint(hb, 2, Config{})
	var got []string
	b.SetHandler(func(h *wire.Header, payload []byte) {
		got = append(got, string(payload))
		if h.Flags&wire.FlagReliable != 0 && string(payload) == "ask:body" {
			reply := []byte("body")
			b.RespondV(h, wire.Header{Type: wire.MsgMem}, []byte("re:"), reply)
			copy(reply, "XXXX")
		}
	})
	// The first reliable frame is lost once; its retransmission must
	// carry what SendReliableV was called with.
	dropped := 0
	net.SetFrameControlHook(func(_, _ string, fr netsim.Frame) netsim.FrameControl {
		if bytes.Contains(fr, []byte("rel:")) && dropped == 0 {
			dropped++
			return netsim.FrameControl{Drop: true}
		}
		return netsim.FrameControl{}
	})
	to := wire.Header{Type: wire.MsgMem, Dst: 2}
	body := []byte("body")
	a.SendV(to, []byte("send:"), body)
	a.SendReliableV(to, []byte("rel:"), body, nil)
	var resp string
	a.RequestV(to, []byte("ask:"), body, 0, func(_ *wire.Header, payload []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		resp = string(payload)
	})
	copy(body, "XXXX")
	sim.Run()
	sort.Strings(got)
	if want := []string{"ask:body", "rel:body", "send:body"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}
	if resp != "re:body" || dropped != 1 || a.Counters().Retransmits == 0 {
		t.Fatalf("resp=%q dropped=%d retransmits=%d", resp, dropped, a.Counters().Retransmits)
	}
}

func TestRequestTimeout(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{}, Config{RequestTimeout: 100 * netsim.Microsecond})
	b.SetHandler(func(*wire.Header, []byte) { /* never respond */ })
	var got error
	a.Request(wire.Header{Type: wire.MsgMem, Dst: 2}, nil, 0,
		func(_ *wire.Header, _ []byte, err error) { got = err })
	sim.Run()
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("err = %v", got)
	}
	if a.Counters().RequestTimeout != 1 {
		t.Fatalf("RequestTimeout = %d", a.Counters().RequestTimeout)
	}
}

func TestBroadcastRequestFirstResponseWins(t *testing.T) {
	// Three stations on a hub host (star via direct links is enough:
	// use b as the only responder; broadcast request still matches).
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 2 * netsim.Microsecond}, Config{})
	b.SetHandler(func(h *wire.Header, payload []byte) {
		b.Respond(h, wire.Header{Type: wire.MsgDiscoverReply}, []byte("here"))
	})
	responses := 0
	a.Request(wire.Header{Type: wire.MsgDiscover, Dst: wire.StationBroadcast}, nil, 0,
		func(resp *wire.Header, payload []byte, err error) {
			if err == nil {
				responses++
			}
		})
	sim.Run()
	if responses != 1 {
		t.Fatalf("responses = %d", responses)
	}
}

func TestLateResponseDropped(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 300 * netsim.Microsecond},
		Config{RequestTimeout: 100 * netsim.Microsecond, RetransmitTimeout: netsim.Second})
	b.SetHandler(func(h *wire.Header, payload []byte) {
		b.Respond(h, wire.Header{Type: wire.MsgMem}, nil)
	})
	calls := 0
	var firstErr error
	a.Request(wire.Header{Type: wire.MsgMem, Dst: 2}, nil, 0,
		func(_ *wire.Header, _ []byte, err error) {
			calls++
			firstErr = err
		})
	sim.Run()
	if calls != 1 {
		t.Fatalf("callback ran %d times", calls)
	}
	if !errors.Is(firstErr, ErrTimeout) {
		t.Fatalf("err = %v", firstErr)
	}
}

func TestSequenceNumbersUnique(t *testing.T) {
	sim, a, _ := pair(t, netsim.LinkConfig{}, Config{})
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seq, err := a.Send(wire.Header{Type: wire.MsgMem, Dst: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[seq] {
			t.Fatalf("seq %d repeated", seq)
		}
		seen[seq] = true
	}
	sim.Run()
}

// TestCountersReset: Reset models a process crash — what is in flight is
// abandoned without its callback — and the statistics, like the
// sequence counter, are not in-flight state: they outlive it.
func TestCountersReset(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}, Config{})
	b.SetHandler(func(*wire.Header, []byte) {})
	a.Send(wire.Header{Type: wire.MsgMem, Dst: 2}, nil)
	sim.Run()
	if a.Counters().FramesSent != 1 {
		t.Fatalf("FramesSent = %d", a.Counters().FramesSent)
	}
	a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, nil, func(error) {
		t.Error("the callback of a frame Reset abandoned ran")
	})
	a.Reset()
	if a.PendingFrames() != 0 {
		t.Fatalf("%d frames pending after Reset", a.PendingFrames())
	}
	sim.Run()
	if got := a.Counters().FramesSent; got != 2 {
		t.Fatalf("FramesSent = %d after Reset, want the 2 sent before it", got)
	}
	if a.Station() != 1 || a.Clock() != backend.Clock(sim) {
		t.Fatal("accessors")
	}
}

func TestManyReliableFramesUnderLoss(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 3 * netsim.Microsecond, DropRate: 0.3},
		Config{
			RetransmitTimeout:    40 * netsim.Microsecond,
			MaxRetransmitTimeout: 300 * netsim.Microsecond,
			RetryBudget:          20 * netsim.Millisecond,
		})
	delivered := 0
	b.SetHandler(func(*wire.Header, []byte) { delivered++ })
	failures := 0
	const n = 200
	for i := 0; i < n; i++ {
		a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte{byte(i)}, func(err error) {
			if err != nil {
				failures++
			}
		})
	}
	sim.Run()
	if failures != 0 {
		t.Fatalf("%d reliable sends failed", failures)
	}
	if delivered != n {
		t.Fatalf("delivered %d/%d (duplicates must be suppressed)", delivered, n)
	}
}

func TestEndpointSurvivesGarbageFrames(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{}, Config{})
	delivered := 0
	b.SetHandler(func(*wire.Header, []byte) { delivered++ })
	rng := newTestRand()
	// Inject garbage straight into b's receive path.
	for i := 0; i < 500; i++ {
		n := rng.Intn(200)
		fr := make([]byte, n)
		rng.Read(fr)
		b.onFrame(fr)
	}
	// Valid traffic still flows.
	a.Send(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("ok"))
	sim.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d after garbage", delivered)
	}
}

func TestAckForUnknownSeqIgnored(t *testing.T) {
	sim, _, b := pair(t, netsim.LinkConfig{}, Config{})
	// Acks for sequence numbers b never sent must be ignored.
	for seq := uint64(1); seq < 50; seq++ {
		h := wire.Header{Type: wire.MsgAck, Src: 1, Dst: 2, Ack: seq}
		fr, _ := wire.Encode(&h, nil)
		b.onFrame(fr)
	}
	sim.Run()
	if b.Counters().AcksReceived != 49 {
		t.Fatalf("AcksReceived = %d", b.Counters().AcksReceived)
	}
	if b.PendingFrames() != 0 {
		t.Fatal("phantom pending state")
	}
}

func TestResponseWithoutRequestDropped(t *testing.T) {
	sim, _, b := pair(t, netsim.LinkConfig{}, Config{})
	handled := 0
	b.SetHandler(func(*wire.Header, []byte) { handled++ })
	h := wire.Header{
		Type: wire.MsgMem, Flags: wire.FlagResponse,
		Src: 1, Dst: 2, Seq: 5, Ack: 999,
	}
	fr, _ := wire.Encode(&h, []byte("orphan"))
	b.onFrame(fr)
	sim.Run()
	if handled != 0 {
		t.Fatal("orphan response reached the handler")
	}
}

func newTestRand() *mathRand { return &mathRand{state: 0x9E3779B97F4A7C15} }

// mathRand is a tiny deterministic source so the test avoids pulling
// in math/rand just for fuzz bytes.
type mathRand struct{ state uint64 }

func (r *mathRand) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}
func (r *mathRand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}
func (r *mathRand) Read(p []byte) {
	for i := range p {
		p[i] = byte(r.next())
	}
}

func BenchmarkRequestResponse(b *testing.B) {
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	ha, _ := netsim.NewHost(net, "a")
	hb, _ := netsim.NewHost(net, "b")
	net.Connect(ha, 0, hb, 0, netsim.DefaultLink)
	ea := NewEndpoint(ha, 1, Config{})
	eb := NewEndpoint(hb, 2, Config{})
	eb.SetHandler(func(h *wire.Header, payload []byte) {
		eb.Respond(h, wire.Header{Type: wire.MsgMem}, payload)
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ea.Request(wire.Header{Type: wire.MsgMem, Dst: 2}, nil, 0,
			func(*wire.Header, []byte, error) {})
		sim.Run()
	}
}

func TestBackoffBridgesLossBursts(t *testing.T) {
	// A reliable frame sent into a dead link survives any outage
	// shorter than the retry budget, and exponential backoff keeps the
	// probe count logarithmic in the outage length. Outages longer
	// than the budget fail with ErrRetriesOut.
	cfg := Config{
		RetransmitTimeout:    100 * netsim.Microsecond,
		MaxRetransmitTimeout: 2 * netsim.Millisecond,
		RetryBudget:          5 * netsim.Millisecond,
	}
	cases := []struct {
		name           string
		burst          netsim.Duration // outage length from t=0
		wantOK         bool
		maxRetransmits uint64
	}{
		{"no-burst", 0, true, 0},
		{"short-burst", 500 * netsim.Microsecond, true, 4},
		// 100+200+400+800 = 1.5ms of probes bridge a 1.4ms outage; a
		// fixed 100µs interval would have burned 14 probes, backoff
		// needs 4.
		{"medium-burst", 1400 * netsim.Microsecond, true, 5},
		{"burst-exceeds-budget", 8 * netsim.Millisecond, false, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := netsim.NewSim(11)
			net := netsim.NewNetwork(sim)
			ha, _ := netsim.NewHost(net, "a")
			hb, _ := netsim.NewHost(net, "b")
			link := netsim.LinkConfig{Latency: 5 * netsim.Microsecond}
			if err := net.Connect(ha, 0, hb, 0, link); err != nil {
				t.Fatal(err)
			}
			a, b := NewEndpoint(ha, 1, cfg), NewEndpoint(hb, 2, cfg)
			delivered := false
			b.SetHandler(func(*wire.Header, []byte) { delivered = true })

			if tc.burst > 0 {
				net.SetLinkDown(ha, 0, true)
				sim.Schedule(tc.burst, func() { net.SetLinkDown(ha, 0, false) })
			}
			var sendErr error
			acked := false
			a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("burst"), func(err error) {
				acked, sendErr = true, err
			})
			sim.Run()

			if !acked {
				t.Fatal("completion callback never ran")
			}
			if tc.wantOK {
				if sendErr != nil || !delivered {
					t.Fatalf("delivered=%v err=%v", delivered, sendErr)
				}
			} else {
				if !errors.Is(sendErr, ErrRetriesOut) {
					t.Fatalf("err = %v, want ErrRetriesOut", sendErr)
				}
				if !errors.Is(sendErr, gasperr.ErrUnreachable) {
					t.Fatalf("err = %v, want gasperr.ErrUnreachable class", sendErr)
				}
			}
			if got := a.Counters().Retransmits; got > tc.maxRetransmits {
				t.Fatalf("retransmits = %d, want <= %d (backoff not growing?)", got, tc.maxRetransmits)
			}
		})
	}
}

func TestBackoffUnderRandomLossBursts(t *testing.T) {
	// Seeded random loss at 85% for the first 2ms of a transfer: every
	// seed must converge once the loss clears, and identical seeds must
	// replay identically.
	run := func(seed int64) (uint64, netsim.Time) {
		sim := netsim.NewSim(seed)
		net := netsim.NewNetwork(sim)
		ha, _ := netsim.NewHost(net, "a")
		hb, _ := netsim.NewHost(net, "b")
		if err := net.Connect(ha, 0, hb, 0, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}); err != nil {
			t.Fatal(err)
		}
		loss := rand.New(rand.NewSource(seed))
		net.SetFrameControlHook(func(_, _ string, _ netsim.Frame) netsim.FrameControl {
			return netsim.FrameControl{Drop: sim.Now() < netsim.Time(2*netsim.Millisecond) && loss.Float64() < 0.85}
		})
		cfg := Config{
			RetransmitTimeout:    100 * netsim.Microsecond,
			MaxRetransmitTimeout: netsim.Millisecond,
			RetryBudget:          20 * netsim.Millisecond,
		}
		a, b := NewEndpoint(ha, 1, cfg), NewEndpoint(hb, 2, cfg)
		b.SetHandler(func(*wire.Header, []byte) {})
		okCount := 0
		for i := 0; i < 8; i++ {
			a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte{byte(i)}, func(err error) {
				if err == nil {
					okCount++
				}
			})
		}
		sim.Run()
		if okCount != 8 {
			t.Fatalf("seed %d: %d/8 frames survived the loss burst", seed, okCount)
		}
		return a.Counters().Retransmits, sim.Now()
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		r1, t1 := run(seed)
		r2, t2 := run(seed)
		if r1 != r2 || t1 != t2 {
			t.Fatalf("seed %d not deterministic: (%d,%v) vs (%d,%v)", seed, r1, t1, r2, t2)
		}
	}
}

func TestMalformedFramesCountedAsParseDrops(t *testing.T) {
	_, _, b := pair(t, netsim.LinkConfig{}, Config{})
	b.SetHandler(func(*wire.Header, []byte) { t.Fatal("malformed frame dispatched") })

	good, err := wire.Encode(&wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2}, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xFF
	badSum := append([]byte(nil), good...)
	badSum[50] ^= 0xFF
	cases := [][]byte{
		nil,
		good[:wire.HeaderSize-1],
		badMagic,
		badSum,
		make([]byte, wire.HeaderSize), // all zero: bad magic
	}
	for _, fr := range cases {
		b.onFrame(fr)
	}
	if got := b.Counters().ParseDrops; got != uint64(len(cases)) {
		t.Fatalf("ParseDrops = %d, want %d", got, len(cases))
	}
}

func TestUnclaimedFramesCountedByMux(t *testing.T) {
	// No handler registered at all: valid frames of any type land in
	// the mux's drop accounting instead of vanishing.
	sim, a, b := pair(t, netsim.LinkConfig{}, Config{})
	if _, err := a.Send(wire.Header{Type: wire.MsgMem, Dst: 2}, nil); err != nil {
		t.Fatal(err)
	}
	// A type byte outside the defined range still decodes (the header
	// is otherwise valid) and must be accounted separately.
	if _, err := a.Send(wire.Header{Type: wire.MsgType(99), Dst: 2}, nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	st := b.Mux().Stats()
	if st.Dropped != 2 {
		t.Fatalf("mux Dropped = %d, want 2: %+v", st.Dropped, st)
	}
	if st.DroppedByType[wire.MsgMem] != 1 || st.DroppedUnknown != 1 {
		t.Fatalf("drop breakdown wrong: %+v", st)
	}
}

func TestTypedMuxHandlerPreemptsDefault(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{}, Config{})
	var typed, fallback int
	b.Mux().Handle(wire.MsgMem, func(h *wire.Header, p []byte) bool { typed++; return true })
	b.SetHandler(func(*wire.Header, []byte) { fallback++ })
	a.Send(wire.Header{Type: wire.MsgMem, Dst: 2}, nil)
	a.Send(wire.Header{Type: wire.MsgRPC, Dst: 2}, nil)
	sim.Run()
	if typed != 1 || fallback != 1 {
		t.Fatalf("typed = %d, fallback = %d", typed, fallback)
	}
}

func TestReliableBufferLifecycle(t *testing.T) {
	// Reliable frames retain their pooled buffer until acked; loss plus
	// retransmission must not over- or under-release (over-release
	// panics in dataplane.Buf, so completing cleanly is the assertion).
	sim, a, b := pair(t, netsim.LinkConfig{DropRate: 0.3}, Config{})
	b.SetHandler(func(*wire.Header, []byte) {})
	acked, failed := 0, 0
	for i := 0; i < 200; i++ {
		a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("payload"), func(err error) {
			if err == nil {
				acked++
			} else {
				failed++
			}
		})
	}
	sim.Run()
	if acked+failed != 200 {
		t.Fatalf("settled %d of 200 (acked %d, failed %d)", acked+failed, acked, failed)
	}
	if acked == 0 {
		t.Fatal("nothing acked under 30% loss")
	}
	if a.PendingFrames() != 0 {
		t.Fatalf("pending = %d after all settled", a.PendingFrames())
	}
}

// --- measured retransmit timer ---

// ackAfter wires endpoint a (station 1) to a raw host that acknowledges
// every reliable frame *delay after it arrives, over a zero-latency
// link: the delay is the path's whole round trip, and a test steps it.
func ackAfter(t *testing.T, cfg Config, delay *netsim.Duration) (*netsim.Sim, *Endpoint) {
	t.Helper()
	net, ha, hb := hosts(t, netsim.LinkConfig{})
	sim := net.Sim()
	hb.SetOnFrame(func(fr netsim.Frame) {
		var h wire.Header
		if err := h.DecodeFrom(fr); err != nil || h.Flags&wire.FlagReliable == 0 {
			return
		}
		ack, _ := wire.Encode(&wire.Header{Type: wire.MsgAck, Src: 2, Dst: h.Src, Ack: h.Seq}, nil)
		sim.Schedule(*delay, func() { hb.Send(ack) })
	})
	return sim, NewEndpoint(ha, 1, cfg)
}

// sendOne sends one reliable frame to station 2 and runs the simulator
// dry, failing the test if the frame was not acknowledged.
func sendOne(t *testing.T, sim *netsim.Sim, a *Endpoint) {
	t.Helper()
	err := errors.New("completion never ran")
	a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("x"), func(e error) { err = e })
	sim.Run()
	if err != nil {
		t.Fatalf("reliable send: %v", err)
	}
}

func TestRTOTracksASteppedRTT(t *testing.T) {
	const floor, ceil = 200 * netsim.Microsecond, 2 * netsim.Millisecond
	delay := 50 * netsim.Microsecond
	sim, a := ackAfter(t, Config{RetransmitTimeout: floor, MaxRetransmitTimeout: ceil}, &delay)
	// step sends n frames one after another at the given round trip,
	// checks the timeout's bounds after each, and returns how many of
	// the last ten were retransmitted.
	step := func(rtt netsim.Duration, n int) (lateRtx uint64) {
		t.Helper()
		delay = rtt
		for i := 0; i < n; i++ {
			if i == n-10 {
				lateRtx = a.Counters().Retransmits
			}
			sendOne(t, sim, a)
			if _, rto := a.RTT(); rto < floor || rto > ceil {
				t.Fatalf("rtt %v frame %d: rto %v outside [%v, %v]", rtt, i, rto, floor, ceil)
			}
		}
		return a.Counters().Retransmits - lateRtx
	}
	within := func(got, want netsim.Duration) bool { return got >= want*9/10 && got <= want*11/10 }

	if rtx := step(50*netsim.Microsecond, 40); rtx != 0 {
		t.Fatalf("%d retransmits at 50us", rtx)
	}
	// A steady path's variance decays below the floor, which then sits
	// on top of the mean: SRTT + max(floor, 4·RTTVAR).
	if srtt, rto := a.RTT(); !within(srtt, 50*netsim.Microsecond) || rto != srtt+floor {
		t.Fatalf("at 50us: srtt %v, rto %v (want srtt + the %v floor)", srtt, rto, floor)
	}
	// Three times the floor: the first frames time out, the backed-off
	// timeout carries over until one is acked cleanly, and the estimate
	// settles on the new path.
	rtx := step(600*netsim.Microsecond, 60)
	if a.Counters().Retransmits == 0 {
		t.Fatal("a step to 3x the floor retransmitted nothing: the test is not stepping the path")
	}
	if rtx != 0 {
		t.Fatalf("%d retransmits in the last ten frames at 600us: not converged", rtx)
	}
	if srtt, rto := a.RTT(); !within(srtt, 600*netsim.Microsecond) || rto < srtt {
		t.Fatalf("at 600us: srtt %v, rto %v", srtt, rto)
	}
	if rtx := step(50*netsim.Microsecond, 60); rtx != 0 {
		t.Fatalf("%d retransmits back at 50us", rtx)
	}
	if srtt, rto := a.RTT(); !within(srtt, 50*netsim.Microsecond) || rto != srtt+floor {
		t.Fatalf("back at 50us: srtt %v, rto %v (want srtt + the %v floor)", srtt, rto, floor)
	}
}

func TestRTONeverExceedsTheCap(t *testing.T) {
	// A path slower than the cap: every sample and every backoff would
	// put the timeout above it.
	const floor, ceil = 100 * netsim.Microsecond, 400 * netsim.Microsecond
	delay := 900 * netsim.Microsecond
	sim, a := ackAfter(t, Config{RetransmitTimeout: floor, MaxRetransmitTimeout: ceil}, &delay)
	for i := 0; i < 20; i++ {
		sendOne(t, sim, a)
		if _, rto := a.RTT(); rto < floor || rto > ceil {
			t.Fatalf("frame %d: rto %v outside [%v, %v]", i, rto, floor, ceil)
		}
	}
	if _, rto := a.RTT(); rto != ceil {
		t.Fatalf("rto %v on a 900us path, want the %v cap", rto, ceil)
	}
}

func TestKarnRule(t *testing.T) {
	delay := 300 * netsim.Microsecond
	sim, a := ackAfter(t, Config{}, &delay) // floor 200us, backoff 2
	// The first frame's timer fires before its ack: the ack could belong
	// to either transmission, so it is no sample, and the doubled
	// timeout stays with the peer.
	sendOne(t, sim, a)
	if got := a.Counters().Retransmits; got != 1 {
		t.Fatalf("first frame: %d retransmits, want 1", got)
	}
	if srtt, rto := a.RTT(); srtt != 0 || rto != 400*netsim.Microsecond {
		t.Fatalf("after a retransmitted frame: srtt %v, rto %v; want no sample and 400us", srtt, rto)
	}
	// The next frame arms with the carried 400us, is acked cleanly at
	// 300us, and that sample replaces the backoff.
	sendOne(t, sim, a)
	if got := a.Counters().Retransmits; got != 1 {
		t.Fatalf("second frame retransmitted (%d in all): the backed-off timeout was not carried over", got)
	}
	// First sample R: SRTT = R, RTTVAR = R/2, RTO = SRTT + 4*RTTVAR.
	if srtt, rto := a.RTT(); srtt != delay || rto != 3*delay {
		t.Fatalf("after a clean sample: srtt %v, rto %v; want %v and %v", srtt, rto, delay, 3*delay)
	}
}

// --- response-as-ack ---

func TestResponseIsTheAck(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}, Config{})
	b.SetHandler(func(h *wire.Header, p []byte) {
		b.Respond(h, wire.Header{Type: wire.MsgMem}, p)
	})
	answered := false
	a.Request(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("q"), 0,
		func(_ *wire.Header, _ []byte, err error) {
			answered = err == nil
			if a.PendingFrames() != 0 {
				t.Error("the response arrived and the request is still pending")
			}
		})
	sim.Run()
	if !answered {
		t.Fatal("no response")
	}
	ac, bc := a.Counters(), b.Counters()
	// Request, response, ack of the response: three frames, not four.
	if bc.AcksSent != 0 || ac.AcksImplicitTotal != 1 || ac.AcksSent != 1 || ac.FramesSent+bc.FramesSent != 2 {
		t.Fatalf("requester %+v\nresponder %+v", ac, bc)
	}
	if srtt, _ := a.RTT(); srtt != 10*netsim.Microsecond {
		t.Fatalf("srtt = %v: the response is the request's round-trip sample", srtt)
	}
}

func TestLostResponseRequestAckedAsDuplicate(t *testing.T) {
	net, ha, hb := hosts(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond})
	sim := net.Sim()
	a, b := NewEndpoint(ha, 1, Config{}), NewEndpoint(hb, 2, Config{})
	handled := 0
	b.SetHandler(func(h *wire.Header, p []byte) {
		handled++
		// The response (and with it the request's only ack) is lost.
		net.SetLinkDown(hb, 0, true)
		b.Respond(h, wire.Header{Type: wire.MsgMem}, p)
		net.SetLinkDown(hb, 0, false)
	})
	responses := 0
	a.Request(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("q"), 0,
		func(_ *wire.Header, _ []byte, err error) {
			if err != nil {
				t.Errorf("request: %v", err)
			}
			responses++
		})
	sim.Run()
	ac, bc := a.Counters(), b.Counters()
	if handled != 1 || responses != 1 {
		t.Fatalf("handled %d, responses %d; want 1 and 1", handled, responses)
	}
	// The requester retransmits; the responder has seen the frame, does
	// not dispatch it again, and acks it with a MsgAck of its own.
	if ac.Retransmits != 1 || bc.Duplicates != 1 || bc.AcksSent != 1 || bc.Retransmits != 1 {
		t.Fatalf("requester %+v\nresponder %+v", ac, bc)
	}
	if a.PendingFrames() != 0 || b.PendingFrames() != 0 {
		t.Fatalf("pending: %d, %d", a.PendingFrames(), b.PendingFrames())
	}
}

func TestStationAnyRequestCompletedByTheHome(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}, Config{})
	b.SetHandler(func(h *wire.Header, p []byte) {
		b.Respond(h, wire.Header{Type: wire.MsgMem}, p)
	})
	var from wire.StationID
	a.Request(wire.Header{Type: wire.MsgMem, Dst: wire.StationAny}, []byte("q"), 0,
		func(resp *wire.Header, _ []byte, err error) {
			if err != nil {
				t.Errorf("request: %v", err)
				return
			}
			from = resp.Src
		})
	sim.Run()
	if from != 2 || a.PendingFrames() != 0 || a.Counters().Retransmits != 0 || a.Counters().AcksImplicitTotal != 1 {
		t.Fatalf("answered by %v, pending %d, %+v", from, a.PendingFrames(), a.Counters())
	}
	// The path is timed under the address the request carried.
	if len(a.peers) != 1 || a.peers[0].dst != wire.StationAny || a.peers[0].srtt == 0 {
		t.Fatalf("send states: %v", a.peers)
	}
}

func TestAckWaitsForTheHandlerOnly(t *testing.T) {
	reliable := func(seq uint64) backend.Frame {
		fr, err := wire.Encode(&wire.Header{
			Type: wire.MsgMem, Src: 1, Dst: 2, Seq: seq, Flags: wire.FlagReliable}, []byte("q"))
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	// Each case delivers one fresh reliable request to b and reports the
	// acks b had sent when its handler ran and when the delivery was over.
	cases := []struct {
		name       string
		handle     func(b *Endpoint, h *wire.Header)
		during, at uint64
	}{
		{"no response: ack after the dispatch",
			func(*Endpoint, *wire.Header) {}, 0, 1},
		{"response: no ack",
			func(b *Endpoint, h *wire.Header) { b.Respond(h, wire.Header{Type: wire.MsgMem}, nil) }, 0, 0},
		{"another frame first: ack ahead of it",
			func(b *Endpoint, h *wire.Header) {
				b.Send(wire.Header{Type: wire.MsgMem, Dst: 1}, nil)
				if got := b.Counters().AcksSent; got != 1 {
					t.Errorf("%d acks sent once another frame went out, want 1", got)
				}
				b.Respond(h, wire.Header{Type: wire.MsgMem}, nil)
			}, 0, 1},
		{"jumbo response: ack ahead of it",
			func(b *Endpoint, h *wire.Header) {
				b.Respond(h, wire.Header{Type: wire.MsgMem}, make([]byte, implicitAckMaxFrame))
			}, 0, 1},
		{"response that cannot be sent: ack",
			func(b *Endpoint, h *wire.Header) {
				if b.Respond(h, wire.Header{Type: wire.MsgMem}, make([]byte, wire.MaxPayload+1)) == nil {
					t.Error("oversize response accepted")
				}
			}, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, _, b := pair(t, netsim.LinkConfig{}, Config{})
			var during uint64
			b.SetHandler(func(h *wire.Header, _ []byte) {
				during = b.Counters().AcksSent
				tc.handle(b, h)
			})
			b.onFrame(reliable(7))
			if got := b.Counters().AcksSent; during != tc.during || got != tc.at {
				t.Errorf("acks sent: %d in the handler, %d after; want %d and %d", during, got, tc.during, tc.at)
			}
			// The same frame again is a duplicate: acked on the spot,
			// whatever the handler did the first time.
			b.onFrame(reliable(7))
			if got := b.Counters().AcksSent; got != tc.at+1 || b.Counters().Duplicates != 1 {
				t.Errorf("after a duplicate: %d acks, %d duplicates", got, b.Counters().Duplicates)
			}
			sim.Run()
		})
	}
}

// TestSetTracerTwiceOneDispatchSpan: the tracer is a setting, not a
// layer that stacks. Installing the same recorder again (a cluster that
// re-wires its nodes) still records one dispatch span per traced frame,
// an untraced frame records none, and a nil recorder turns them off.
func TestSetTracerTwiceOneDispatchSpan(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{}, Config{})
	rec := trace.NewRecorder(sim, trace.Config{SampleEvery: 1})
	b.SetTracer(rec)
	b.SetTracer(rec)
	b.SetHandler(func(*wire.Header, []byte) {})
	dispatchSpans := func() (n int) {
		for _, sp := range rec.Spans() {
			if sp.Kind == trace.KindDispatch {
				n++
			}
		}
		return n
	}
	send := func(traced bool) {
		h := wire.Header{Type: wire.MsgMem, Dst: 2}
		if traced {
			rec.StartRoot("op").Ctx().Inject(&h)
		}
		a.Send(h, nil)
		sim.Run()
	}
	send(true)
	if got := dispatchSpans(); got != 1 {
		t.Fatalf("%d dispatch spans for one traced frame, want 1", got)
	}
	send(false)
	b.SetTracer(nil)
	send(true)
	if got := dispatchSpans(); got != 1 {
		t.Fatalf("%d dispatch spans after an untraced frame and a traced one with no recorder, want 1", got)
	}
}

func TestReliableRoundTripDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only bind without -race")
	}
	sim, a, b := pair(t, netsim.DefaultLink, Config{})
	b.SetHandler(func(h *wire.Header, p []byte) {
		b.Respond(h, wire.Header{Type: wire.MsgMem}, p)
	})
	payload := []byte("0123456789abcdef")
	onResp := func(_ *wire.Header, _ []byte, err error) {
		if err != nil {
			t.Error(err)
		}
	}
	roundTrip := func() {
		a.Request(wire.Header{Type: wire.MsgMem, Dst: 2}, payload, 0, onResp)
		sim.Run()
	}
	// The estimator is allocated with the first frame to a peer, the
	// pooled per-frame state on first use.
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(500, roundTrip); n != 0 {
		t.Fatalf("a reliable request/response round trip allocates %.1f times, want 0", n)
	}
}
