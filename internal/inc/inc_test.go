package inc

import (
	"bytes"
	"testing"

	"repro/internal/backend"
	"repro/internal/memproto"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

// fakeDP is a recording Dataplane: emitted frames are captured per
// port and timers fire only when the test says so.
type fakeDP struct {
	station wire.StationID
	ports   map[wire.StationID]int
	groups  map[uint64][]wire.StationID
	emitted []emission
	floods  int
	timers  []func()
	seq     uint64
}

type emission struct {
	port  int
	frame []byte
}

func (d *fakeDP) Station() wire.StationID { return d.station }
func (d *fakeDP) NextReplySeq() uint64    { d.seq++; return d.seq }
func (d *fakeDP) EmitFrame(port int, fr backend.Frame) {
	d.emitted = append(d.emitted, emission{port: port, frame: fr})
}
func (d *fakeDP) FloodFrame(skip int, fr backend.Frame) { d.floods++ }
func (d *fakeDP) StationPort(st wire.StationID) (int, bool) {
	p, ok := d.ports[st]
	return p, ok
}
func (d *fakeDP) ScheduleAfter(_ backend.Duration, fn func()) {
	d.timers = append(d.timers, fn)
}
func (d *fakeDP) Group(id uint64) ([]wire.StationID, bool) {
	m, ok := d.groups[id]
	return m, ok
}

// fire runs and clears every armed timer.
func (d *fakeDP) fire() {
	ts := d.timers
	d.timers = nil
	for _, fn := range ts {
		fn()
	}
}

func (d *fakeDP) take() []emission {
	out := d.emitted
	d.emitted = nil
	return out
}

var gen = oid.NewSeededGenerator(99)

const (
	homeSt   = wire.StationID(7)
	readerSt = wire.StationID(2)
)

func memFrame(t *testing.T, h wire.Header, m memproto.Msg) []byte {
	t.Helper()
	fr, err := wire.Encode(&h, m.Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// handle offers fr to the program as a switch's ingress would: parsed,
// on port ingress.
func handle(t testing.TB, p p4sim.IncProgram, ingress int, fr []byte) bool {
	t.Helper()
	var h wire.Header
	if err := h.DecodeFrom(fr); err != nil {
		t.Fatal(err)
	}
	return p.HandleFrame(ingress, &h, fr)
}

func incInvFrame(t *testing.T, obj oid.ID, opID, group uint64, claimed bool) []byte {
	t.Helper()
	h := wire.Header{Type: wire.MsgIncInv, Src: homeSt, Dst: wire.StationAny,
		Object: obj, Seq: 30}
	fr, err := wire.Encode(&h, memproto.EncodeIncInv(opID, group, claimed))
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func incAckFrame(t *testing.T, obj oid.ID, from wire.StationID, opID, group, bitmap uint64) []byte {
	t.Helper()
	h := wire.Header{Type: wire.MsgIncAck, Src: from, Dst: homeSt,
		Object: obj, Seq: 31}
	fr, err := wire.Encode(&h, memproto.EncodeIncAck(opID, group, bitmap))
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// members in sorted (bitmap) order; 3 and 4 share an egress port.
var groupMembers = []wire.StationID{2, 3, 4}

func newGroupEngine(t *testing.T, cfg Config) (*Engine, *fakeDP) {
	t.Helper()
	dp := &fakeDP{station: 2001,
		ports:  map[wire.StationID]int{homeSt: 0, 2: 1, 3: 2, 4: 2},
		groups: map[uint64][]wire.StationID{5: groupMembers},
	}
	e, err := New("sw", dp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, dp
}

func TestGroupReplicatesPerEgressPort(t *testing.T) {
	e, dp := newGroupEngine(t, Config{Mcast: true})
	obj := gen.New()

	fr := incInvFrame(t, obj, 11, 5, false)
	if !handle(t, e, 0, fr) {
		t.Fatal("multicast invalidation not consumed")
	}
	out := dp.take()
	if len(out) != 2 || out[0].port != 1 || out[1].port != 2 {
		t.Fatalf("replicated to ports %v, want one copy each on 1 and 2", out)
	}
	if e.Counters().McastReplicated != 2 {
		t.Fatalf("McastReplicated = %d", e.Counters().McastReplicated)
	}

	// Replicas must not alias the ingress buffer: the pipeline recycles
	// it before the deferred emission happens.
	for i := range fr {
		fr[i] = 0xff
	}
	for _, em := range out {
		var h wire.Header
		if err := h.DecodeFrom(em.frame); err != nil {
			t.Fatalf("replica aliased the recycled ingress buffer: %v", err)
		}
		if _, g, _, ok := memproto.DecodeIncInv(wire.Payload(em.frame)); !ok || g != 5 {
			t.Fatalf("replica payload corrupted: group=%d ok=%v", g, ok)
		}
	}
}

func TestGroupSkipsIngressPort(t *testing.T) {
	e, dp := newGroupEngine(t, Config{Mcast: true})
	obj := gen.New()
	// Arriving on port 2 (members 3 and 4 live behind it): reverse-path
	// forwarding covers them upstream, only member 2 gets a copy.
	handle(t, e, 2, incInvFrame(t, obj, 11, 5, false))
	out := dp.take()
	if len(out) != 1 || out[0].port != 1 {
		t.Fatalf("replicated to %v, want only port 1", out)
	}
}

// TestGroupUnknownFloodsAndGroupZeroStops: an uninstalled group
// degrades to a flood, but group 0 names no group, so a stray group-0
// invalidate is consumed where it arrives — never replicated, never
// flooded.
func TestGroupUnknownFloodsAndGroupZeroStops(t *testing.T) {
	e, dp := newGroupEngine(t, Config{Mcast: true})
	obj := gen.New()

	handle(t, e, 0, incInvFrame(t, obj, 11, 6, false)) // group 6 never installed
	if dp.floods != 1 || e.Counters().McastFloods != 1 {
		t.Fatalf("unknown group: floods=%d counter=%d", dp.floods, e.Counters().McastFloods)
	}

	if !handle(t, e, 0, incInvFrame(t, obj, 11, 0, false)) {
		t.Fatal("group-0 invalidate not consumed")
	}
	if got := dp.take(); len(got) != 0 || dp.floods != 1 || e.Counters().McastFloods != 1 {
		t.Fatalf("group-0 invalidate went on: %d copies, %d floods", len(got), dp.floods)
	}
}

// TestServiceDeclinesOtherFrames pins what the engine leaves to the
// next program and the tables: memory, control and rpc frames, and an
// ack for a round it does not aggregate, are declined byte-untouched,
// emit nothing and count nothing, and the engine still replicates a
// group invalidate after them.
func TestServiceDeclinesOtherFrames(t *testing.T) {
	e, dp := newGroupEngine(t, Config{Mcast: true, AckAgg: true})
	obj := gen.New()
	read := memproto.Msg{Op: memproto.OpReadReq, Offset: 0, Length: 8}
	for _, h := range []wire.Header{
		{Type: wire.MsgMem, Src: readerSt, Dst: homeSt, Object: obj, Seq: 1},
		{Type: wire.MsgCtrl, Src: readerSt, Dst: homeSt, Object: obj, Seq: 2},
		{Type: wire.MsgRPC, Src: readerSt, Dst: homeSt, Object: obj, Seq: 3},
	} {
		fr := memFrame(t, h, read)
		sent := append([]byte(nil), fr...)
		if handle(t, e, 1, fr) || !bytes.Equal(fr, sent) {
			t.Fatalf("engine claimed or edited a frame that was not its own: %+v", h)
		}
	}
	ack := incAckFrame(t, obj, 2, 11, 5, 0)
	if handle(t, e, 1, ack) {
		t.Fatal("ack absorbed with no aggregation claimed")
	}
	if out := dp.take(); len(out) != 0 || dp.floods != 0 {
		t.Fatalf("declined frames emitted %d frames, %d floods", len(out), dp.floods)
	}
	if c := e.Counters(); c != (Counters{}) {
		t.Fatalf("declined frames counted: %+v", c)
	}
	if !handle(t, e, 0, incInvFrame(t, obj, 11, 5, false)) || len(dp.take()) != 2 {
		t.Fatal("group invalidate no longer replicated after the declined frames")
	}
}

func TestAggCoalescesAcks(t *testing.T) {
	e, dp := newGroupEngine(t, Config{Mcast: true, AckAgg: true})
	obj := gen.New()

	handle(t, e, 0, incInvFrame(t, obj, 11, 5, false))
	for _, em := range dp.take() {
		if _, _, claimed, _ := memproto.DecodeIncInv(wire.Payload(em.frame)); !claimed {
			t.Fatal("replicated copy not claimed by the aggregating switch")
		}
	}

	// Two of three acks absorb silently; the last completes the bitmap
	// and one aggregated ack goes to the home.
	for _, st := range groupMembers[:2] {
		if !handle(t, e, int(st), incAckFrame(t, obj, st, 11, 5, 0)) {
			t.Fatalf("member %d ack not absorbed", st)
		}
		if got := dp.take(); len(got) != 0 {
			t.Fatalf("partial aggregation leaked %d frames", len(got))
		}
	}
	handle(t, e, 2, incAckFrame(t, obj, 4, 11, 5, 0))
	out := dp.take()
	if len(out) != 1 || out[0].port != 0 {
		t.Fatalf("aggregate: %v, want one frame to the home port", out)
	}
	opID, group, bitmap, ok := memproto.DecodeIncAck(wire.Payload(out[0].frame))
	if !ok || opID != 11 || group != 5 || bitmap != 0b111 {
		t.Fatalf("aggregate payload: op=%d group=%d bitmap=%b", opID, group, bitmap)
	}
	c := e.Counters()
	if c.AcksCoalesced != 3 || c.AggAcksSent != 1 || c.AggTimeouts != 0 {
		t.Fatalf("counters: %+v", c)
	}

	// The round is closed: a straggling duplicate forwards untouched.
	if handle(t, e, 1, incAckFrame(t, obj, 2, 11, 5, 0)) {
		t.Fatal("ack absorbed into a completed aggregation")
	}
}

func TestAggTimeoutNeverFabricates(t *testing.T) {
	e, dp := newGroupEngine(t, Config{Mcast: true, AckAgg: true})
	obj := gen.New()

	handle(t, e, 0, incInvFrame(t, obj, 11, 5, false))
	dp.take()
	handle(t, e, 1, incAckFrame(t, obj, 2, 11, 5, 0))
	handle(t, e, 2, incAckFrame(t, obj, 3, 11, 5, 0))
	// Member 4 is dead. The flush must carry exactly the two acks the
	// switch holds — bit 2 (member 4) stays clear.
	dp.fire()
	out := dp.take()
	if len(out) != 1 {
		t.Fatalf("flush emitted %d frames", len(out))
	}
	_, _, bitmap, _ := memproto.DecodeIncAck(wire.Payload(out[0].frame))
	if bitmap != 0b011 {
		t.Fatalf("flush bitmap = %b, fabricated a dead sharer's ack", bitmap)
	}
	if e.Counters().AggTimeouts != 1 {
		t.Fatalf("AggTimeouts = %d", e.Counters().AggTimeouts)
	}
}

func TestAggEmptyTimeoutSendsNothing(t *testing.T) {
	e, dp := newGroupEngine(t, Config{Mcast: true, AckAgg: true})
	handle(t, e, 0, incInvFrame(t, gen.New(), 11, 5, false))
	dp.take()
	dp.fire()
	if out := dp.take(); len(out) != 0 {
		t.Fatalf("zero-ack flush emitted %d frames", len(out))
	}
	if e.Counters().AggTimeouts != 1 || e.Counters().AggAcksSent != 0 {
		t.Fatalf("counters: %+v", e.Counters())
	}
}

func TestAggRespectsUpstreamClaim(t *testing.T) {
	e, dp := newGroupEngine(t, Config{Mcast: true, AckAgg: true})
	obj := gen.New()

	// An already-claimed invalidation still replicates but must not
	// start a second aggregation here.
	handle(t, e, 0, incInvFrame(t, obj, 11, 5, true))
	if len(dp.take()) != 2 {
		t.Fatal("claimed invalidation not replicated")
	}
	if handle(t, e, 1, incAckFrame(t, obj, 2, 11, 5, 0)) {
		t.Fatal("ack absorbed without a claimed aggregation")
	}
}
