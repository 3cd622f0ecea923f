package inc

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// rig: core switch hosting the service, three leaves, one host each.
type rig struct {
	sim     *netsim.Sim
	regs    *Registers
	clients []*Client
	core    *p4sim.Switch
}

func newRig(t *testing.T, numRegs int) *rig {
	t.Helper()
	sim := netsim.NewSim(71)
	net := netsim.NewNetwork(sim)
	link := netsim.LinkConfig{Latency: 5 * netsim.Microsecond, BitsPerSec: 10_000_000_000}

	coreSw, err := p4sim.NewSwitch(net, "core", 3, p4sim.SwitchConfig{Station: 900})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{sim: sim, core: coreSw}
	toward := map[*p4sim.Switch]int{}
	serviceID := gen.New()
	for i := 0; i < 3; i++ {
		leaf, err := p4sim.NewSwitch(net, "leaf"+string(rune('0'+i)), 2,
			p4sim.SwitchConfig{LearnStations: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Connect(coreSw, i, leaf, 0, link); err != nil {
			t.Fatal(err)
		}
		toward[leaf] = 0 // uplink toward the core
		h, err := netsim.NewHost(net, "h"+string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Connect(h, 0, leaf, 1, link); err != nil {
			t.Fatal(err)
		}
		ep := transport.NewEndpoint(h, wire.StationID(i+1), transport.Config{})
		r.clients = append(r.clients, NewClient(ep, serviceID))
	}
	regs, err := InstallRegisters(serviceID, coreSw, numRegs, toward)
	if err != nil {
		t.Fatal(err)
	}
	r.regs = regs
	return r
}

func TestFetchAddSequencer(t *testing.T) {
	r := newRig(t, 4)
	var got []uint64
	for i := 0; i < 5; i++ {
		r.clients[0].FetchAdd(0, 1, func(old uint64, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, old)
		})
		r.sim.Run()
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("tickets = %v", got)
		}
	}
	if r.regs.Ops() != 5 {
		t.Fatalf("Ops = %d", r.regs.Ops())
	}
}

func TestTicketsUniqueAcrossClients(t *testing.T) {
	r := newRig(t, 1)
	seen := map[uint64]int{}
	total := 0
	for round := 0; round < 10; round++ {
		for c := range r.clients {
			r.clients[c].FetchAdd(0, 1, func(old uint64, err error) {
				if err != nil {
					t.Fatal(err)
				}
				seen[old]++
				total++
			})
		}
	}
	r.sim.Run()
	if total != 30 {
		t.Fatalf("completed %d/30", total)
	}
	for ticket, count := range seen {
		if count != 1 {
			t.Fatalf("ticket %d issued %d times", ticket, count)
		}
		if ticket >= 30 {
			t.Fatalf("ticket %d out of range", ticket)
		}
	}
}

func TestCompareSwapLock(t *testing.T) {
	r := newRig(t, 2)
	// Client 0 takes the lock; client 1's attempt fails; after
	// release client 1 succeeds.
	step := 0
	r.clients[0].CompareSwap(1, 0, 100, func(ok bool, cur uint64, err error) {
		if err != nil || !ok {
			t.Fatalf("acquire: ok=%v cur=%d err=%v", ok, cur, err)
		}
		step = 1
		r.clients[1].CompareSwap(1, 0, 200, func(ok bool, cur uint64, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if ok || cur != 100 {
				t.Fatalf("contended acquire should fail: ok=%v cur=%d", ok, cur)
			}
			step = 2
			// Release.
			r.clients[0].CompareSwap(1, 100, 0, func(ok bool, _ uint64, err error) {
				if err != nil || !ok {
					t.Fatalf("release: ok=%v err=%v", ok, err)
				}
				step = 3
				r.clients[1].CompareSwap(1, 0, 200, func(ok bool, _ uint64, err error) {
					if err != nil || !ok {
						t.Fatalf("reacquire: ok=%v err=%v", ok, err)
					}
					step = 4
				})
			})
		})
	})
	r.sim.Run()
	if step != 4 {
		t.Fatalf("lock protocol stopped at step %d", step)
	}
	if v := r.regs.Values(); v[1] != 200 {
		t.Fatalf("final register = %d", v[1])
	}
}

func TestReadAndErrors(t *testing.T) {
	r := newRig(t, 1)
	r.clients[0].FetchAdd(0, 7, func(uint64, error) {})
	r.sim.Run()
	r.clients[0].Read(0, func(v uint64, err error) {
		if err != nil || v != 7 {
			t.Fatalf("Read = %d, %v", v, err)
		}
	})
	r.sim.Run()
	// Out-of-range index.
	var gotErr error
	r.clients[0].FetchAdd(99, 1, func(_ uint64, err error) { gotErr = err })
	r.sim.Run()
	if gotErr == nil {
		t.Fatal("bad index accepted")
	}
}

func TestSwitchHopLatencyAdvantage(t *testing.T) {
	// The in-switch service answers from the core: 2 hops each way
	// instead of the 4 a host-based service needs.
	r := newRig(t, 1)
	start := r.sim.Now()
	var end netsim.Time
	r.clients[0].FetchAdd(0, 1, func(uint64, error) { end = r.sim.Now() })
	r.sim.Run()
	rtt := end.Sub(start)
	// host→leaf→core and back: 4 link crossings ≈ 4×(5µs+~1µs) plus
	// pipeline delays; a host-based service would need 8.
	if rtt > 30*netsim.Microsecond {
		t.Fatalf("in-switch RTT = %v, expected ~25µs (2 hops each way)", rtt)
	}
}

func TestCompareSwapBadIndex(t *testing.T) {
	r := newRig(t, 1)
	var gotErr error
	r.clients[0].CompareSwap(9, 0, 1, func(_ bool, _ uint64, err error) { gotErr = err })
	r.sim.Run()
	if gotErr == nil {
		t.Fatal("bad CAS index accepted")
	}
	var rerr error
	r.clients[0].Read(9, func(_ uint64, err error) { rerr = err })
	r.sim.Run()
	if rerr == nil {
		t.Fatal("bad Read index accepted")
	}
}

func TestInstallFailsOnFullObjectTable(t *testing.T) {
	sim := netsim.NewSim(2)
	net := netsim.NewNetwork(sim)
	host, err := p4sim.NewSwitch(net, "h", 2, p4sim.SwitchConfig{Station: 900})
	if err != nil {
		t.Fatal(err)
	}
	// Capacity-0 object table (32B entries don't fit in 16B budget) on
	// a switch that needs a route toward the host.
	leaf, err := p4sim.NewSwitch(net, "l", 2, p4sim.SwitchConfig{ObjectTableMemory: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InstallRegisters(gen.New(), host, 1, map[*p4sim.Switch]int{leaf: 0}); err == nil {
		t.Fatal("InstallRegisters accepted full table")
	}
}

func TestInstallRequiresStation(t *testing.T) {
	sim := netsim.NewSim(2)
	net := netsim.NewNetwork(sim)
	host, err := p4sim.NewSwitch(net, "h", 2, p4sim.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InstallRegisters(gen.New(), host, 1, nil); err == nil {
		t.Fatal("InstallRegisters accepted station-less switch")
	}
}

// newFakeRegisters is a register service on the recording fake: the
// program is driven with raw frames, no switch or transport underneath.
func newFakeRegisters(numRegs int) (*Registers, *fakeDP) {
	dp := &fakeDP{station: 500}
	return newRegisters(gen.New(), dp, numRegs), dp
}

// regFrame encodes a register request frame for service id from
// station src.
func regFrame(t testing.TB, id oid.ID, src wire.StationID, seq uint64, payload []byte) []byte {
	t.Helper()
	h := wire.Header{
		Type: wire.MsgCtrl, Flags: wire.FlagRouteOnObject,
		Src: src, Dst: wire.StationAny, Object: id, Seq: seq,
	}
	fr, err := wire.Encode(&h, payload)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func TestRegisterServiceDirect(t *testing.T) {
	r, dp := newFakeRegisters(2)
	fr := regFrame(t, r.ID, 1, 1, encodeReq(RegFetchAdd, 0, 5, 0))
	if !handle(t, r, 3, fr) {
		t.Fatal("register request declined")
	}
	out := dp.take()
	if len(out) != 1 || out[0].port != 3 {
		t.Fatalf("replies %v, want one out the ingress port", out)
	}
	var resp wire.Header
	if err := resp.DecodeFrom(out[0].frame); err != nil {
		t.Fatal(err)
	}
	if resp.Src != 500 || resp.Dst != 1 || resp.Ack != 1 || resp.Flags&wire.FlagResponse == 0 {
		t.Fatalf("reply header = %+v", resp)
	}
	if got := r.Values(); got[0] != 5 {
		t.Fatalf("register = %d", got[0])
	}
	// Duplicate (retransmit): served from cache, no re-execution.
	handle(t, r, 3, fr)
	if again := dp.take(); len(again) != 1 || !bytes.Equal(again[0].frame, out[0].frame) {
		t.Fatalf("retransmission answered with %d frames, want the cached reply", len(again))
	}
	if got := r.Values(); got[0] != 5 {
		t.Fatalf("duplicate re-executed: register = %d", got[0])
	}
	if r.Ops() != 1 {
		t.Fatalf("Ops = %d", r.Ops())
	}
}

// TestRegisterServiceSurvivesShortPayloads sends register frames with
// truncated and oversized payloads.
func TestRegisterServiceSurvivesShortPayloads(t *testing.T) {
	r, dp := newFakeRegisters(2)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		payload := make([]byte, rng.Intn(40))
		rng.Read(payload)
		handle(t, r, 0, regFrame(t, r.ID, 1, uint64(i+1), payload))
	}
	// Registers may have moved, but nothing crashed and a reply went
	// back for every distinct request.
	if got := len(dp.take()); got != 200 {
		t.Fatalf("replies = %d", got)
	}
}

// TestServiceDeclinesOtherFrames pins what the program leaves to the
// next program and the tables: a MsgCtrl request for a different
// object, a response frame carrying the service's own ID, and another
// message type for it are declined untouched.
func TestServiceDeclinesOtherFrames(t *testing.T) {
	r, dp := newFakeRegisters(1)
	req := encodeReq(RegFetchAdd, 0, 1, 0)
	for _, h := range []wire.Header{
		{Type: wire.MsgCtrl, Src: 1, Dst: 2, Object: gen.New(), Seq: 1},
		{Type: wire.MsgCtrl, Flags: wire.FlagResponse, Src: 1, Dst: 2, Object: r.ID, Seq: 2},
		{Type: wire.MsgMem, Src: 1, Dst: 2, Object: r.ID, Seq: 3},
	} {
		fr, err := wire.Encode(&h, req)
		if err != nil {
			t.Fatal(err)
		}
		sent := append([]byte(nil), fr...)
		if handle(t, r, 0, fr) || !bytes.Equal(fr, sent) {
			t.Fatalf("program claimed or edited a frame that was not its request: %+v", h)
		}
	}
	if r.Ops() != 0 || len(dp.take()) != 0 {
		t.Fatalf("declined frames executed: ops %d", r.Ops())
	}
}

// FuzzService drives the program with arbitrary MsgCtrl payloads: it
// must not panic, it answers each request exactly once, and a
// retransmitted (src, seq) gets the cached reply back without
// executing again.
func FuzzService(f *testing.F) {
	f.Add([]byte{}, uint64(1), uint8(1))
	f.Add(encodeReq(RegFetchAdd, 0, 5, 0), uint64(2), uint8(2))
	f.Add(encodeReq(RegCompareSwap, 3, 0, 9), uint64(0), uint8(0))
	f.Add(encodeReq(RegRead, 1<<31, 0, 0), uint64(1<<63), uint8(255))
	f.Add(encodeReq(RegOp(77), 0, 1, 2), uint64(3), uint8(1))
	f.Fuzz(func(t *testing.T, payload []byte, seq uint64, src uint8) {
		if len(payload) > 1024 {
			return
		}
		r, dp := newFakeRegisters(4)
		// Non-zero state, so a read or a failed CAS has a value to report
		// (from a station no uint8 src can collide with).
		handle(t, r, 0, regFrame(t, r.ID, 1000, 1, encodeReq(RegFetchAdd, 3, 7, 0)))
		dp.take()

		fr := regFrame(t, r.ID, wire.StationID(src), seq, payload)
		handle(t, r, 0, fr)
		first := dp.take()
		if len(first) != 1 {
			t.Fatalf("%d replies to one request", len(first))
		}
		regs, ops := r.Values(), r.Ops()
		if ops != 2 {
			t.Fatalf("Ops = %d after two requests", ops)
		}
		handle(t, r, 0, fr)
		again := dp.take()
		if len(again) != 1 || !bytes.Equal(first[0].frame, again[0].frame) {
			t.Fatalf("retransmission not answered from the cache: %d replies", len(again))
		}
		if r.Ops() != ops || !reflect.DeepEqual(r.Values(), regs) {
			t.Fatalf("retransmission executed again: ops %d → %d, registers %v → %v",
				ops, r.Ops(), regs, r.Values())
		}
	})
}
