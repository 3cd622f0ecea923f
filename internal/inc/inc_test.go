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

// respFrame is a clean single-fragment read response from the home.
func respFrame(t *testing.T, obj oid.ID, off uint64, data []byte) []byte {
	t.Helper()
	return memFrame(t,
		wire.Header{Type: wire.MsgMem, Flags: wire.FlagResponse,
			Src: homeSt, Dst: readerSt, Object: obj, Seq: 1, Ack: 4},
		memproto.Msg{Op: memproto.OpReadResp, Status: memproto.StatusOK,
			Offset: off, Version: 3, Data: data})
}

func newCacheEngine(t *testing.T) (*Engine, *fakeDP) {
	t.Helper()
	dp := &fakeDP{station: 2001, ports: map[wire.StationID]int{homeSt: 0, readerSt: 1}}
	e, err := New("sw", dp, Config{Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	return e, dp
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

func TestCacheLearnsAndServes(t *testing.T) {
	e, dp := newCacheEngine(t)
	obj := gen.New()
	data := bytes.Repeat([]byte{0xab}, 64)

	// A passing read response is learned, forwarded, and claimed.
	resp := respFrame(t, obj, 100, data)
	if handle(t, e, 0, resp) {
		t.Fatal("read response consumed; must forward")
	}
	if e.Counters().CacheInserts != 1 {
		t.Fatalf("CacheInserts = %d", e.Counters().CacheInserts)
	}
	if wire.Payload(resp)[memproto.IncCacheClaimOff] != 1 {
		t.Fatal("forwarded response not claimed")
	}

	// A read inside the cached range, addressed to the home, is served
	// out the ingress: transport ack (reliable request) then response.
	req := memFrame(t,
		wire.Header{Type: wire.MsgMem, Flags: wire.FlagReliable,
			Src: readerSt, Dst: homeSt, Object: obj, Seq: 9},
		memproto.Msg{Op: memproto.OpReadReq, Offset: 110, Length: 16})
	if !handle(t, e, 1, req) {
		t.Fatal("in-range read not served")
	}
	out := dp.take()
	if len(out) != 2 {
		t.Fatalf("emitted %d frames, want ack+response", len(out))
	}
	var ah, rh wire.Header
	if err := ah.DecodeFrom(out[0].frame); err != nil || ah.Type != wire.MsgAck || ah.Ack != 9 {
		t.Fatalf("first frame not the transport ack: %+v (%v)", ah, err)
	}
	if err := rh.DecodeFrom(out[1].frame); err != nil {
		t.Fatal(err)
	}
	if out[1].port != 1 || rh.Flags&wire.FlagResponse == 0 || rh.Ack != 9 {
		t.Fatalf("response misdirected: port=%d hdr=%+v", out[1].port, rh)
	}
	var rm memproto.Msg
	if err := rm.Unmarshal(wire.Payload(out[1].frame)); err != nil {
		t.Fatal(err)
	}
	if rm.Op != memproto.OpReadResp || !bytes.Equal(rm.Data, data[10:26]) {
		t.Fatalf("served wrong bytes: op=%v len=%d", rm.Op, len(rm.Data))
	}
	if e.Counters().CacheHits != 1 {
		t.Fatalf("CacheHits = %d", e.Counters().CacheHits)
	}

	// Out-of-range and wrongly-addressed reads fall through to the home.
	miss := memFrame(t,
		wire.Header{Type: wire.MsgMem, Src: readerSt, Dst: homeSt, Object: obj, Seq: 10},
		memproto.Msg{Op: memproto.OpReadReq, Offset: 90, Length: 16})
	if handle(t, e, 1, miss) {
		t.Fatal("out-of-range read served from cache")
	}
	moved := memFrame(t,
		wire.Header{Type: wire.MsgMem, Src: readerSt, Dst: 9, Object: obj, Seq: 11},
		memproto.Msg{Op: memproto.OpReadReq, Offset: 110, Length: 8})
	if handle(t, e, 1, moved) {
		t.Fatal("read addressed to a different home served from cache")
	}
	if e.Counters().CacheMisses != 2 {
		t.Fatalf("CacheMisses = %d", e.Counters().CacheMisses)
	}
}

// TestServiceDeclinesOtherFrames pins what the cache program leaves to
// the next program and the tables: frames for a cached object that are
// not a read request of its own (a control message, an rpc, an ack
// while aggregation is off) and a read of an object it does not hold
// are declined untouched, emit nothing and leave the line servable.
func TestServiceDeclinesOtherFrames(t *testing.T) {
	e, dp := newCacheEngine(t)
	obj := gen.New()
	handle(t, e, 0, respFrame(t, obj, 0, bytes.Repeat([]byte{0xcd}, 64)))
	read := memproto.Msg{Op: memproto.OpReadReq, Offset: 0, Length: 8}
	for _, h := range []wire.Header{
		{Type: wire.MsgCtrl, Src: readerSt, Dst: homeSt, Object: obj, Seq: 1},
		{Type: wire.MsgRPC, Src: readerSt, Dst: homeSt, Object: obj, Seq: 2},
		{Type: wire.MsgIncAck, Src: readerSt, Dst: homeSt, Object: obj, Seq: 3},
		{Type: wire.MsgMem, Src: readerSt, Dst: homeSt, Object: gen.New(), Seq: 4},
	} {
		fr := memFrame(t, h, read)
		sent := append([]byte(nil), fr...)
		if handle(t, e, 1, fr) || !bytes.Equal(fr, sent) {
			t.Fatalf("program claimed or edited a frame that was not its request: %+v", h)
		}
	}
	if out := dp.take(); len(out) != 0 {
		t.Fatalf("declined frames emitted %d frames", len(out))
	}
	if c := e.Counters(); c.CacheHits != 0 || c.CacheMisses != 0 {
		t.Fatalf("declined frames counted: %+v", c)
	}
	own := memFrame(t, wire.Header{Type: wire.MsgMem, Src: readerSt, Dst: homeSt, Object: obj, Seq: 5}, read)
	if !handle(t, e, 1, own) || e.Counters().CacheHits != 1 {
		t.Fatal("line no longer served after the declined frames")
	}
}

func TestCacheClaimStopsSecondSwitch(t *testing.T) {
	e1, _ := newCacheEngine(t)
	e2, _ := newCacheEngine(t)
	obj := gen.New()
	resp := respFrame(t, obj, 0, []byte{1, 2, 3, 4})

	handle(t, e1, 0, resp) // learns and claims in flight
	handle(t, e2, 0, resp) // sees the claim downstream
	if e2.Counters().CacheInserts != 0 {
		t.Fatal("second switch cached a claimed response")
	}
}

func TestCacheRejectsUnservableResponses(t *testing.T) {
	e, _ := newCacheEngine(t)
	obj := gen.New()
	for name, m := range map[string]memproto.Msg{
		"fragment": {Op: memproto.OpReadResp, Status: memproto.StatusOK,
			FragOffset: 8, Data: []byte{1}},
		"multi-frame": {Op: memproto.OpReadResp, Status: memproto.StatusOK,
			TotalLen: 4096, Data: []byte{1}},
		"error": {Op: memproto.OpReadResp, Status: memproto.StatusDenied,
			Data: []byte{1}},
		"empty": {Op: memproto.OpReadResp, Status: memproto.StatusOK},
		"oversize": {Op: memproto.OpReadResp, Status: memproto.StatusOK,
			Data: make([]byte, CacheLine+1)},
	} {
		fr := memFrame(t, wire.Header{Type: wire.MsgMem, Flags: wire.FlagResponse,
			Src: homeSt, Dst: readerSt, Object: obj, Seq: 1}, m)
		handle(t, e, 0, fr)
		if got := e.Counters().CacheInserts; got != 0 {
			t.Fatalf("%s response cached (inserts=%d)", name, got)
		}
	}
}

func TestCacheInvalidateAndShadow(t *testing.T) {
	e, dp := newCacheEngine(t)
	obj := gen.New()
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	handle(t, e, 0, respFrame(t, obj, 0, data))

	// A passing write evicts the line...
	wr := memFrame(t,
		wire.Header{Type: wire.MsgMem, Src: readerSt, Dst: homeSt, Object: obj, Seq: 20},
		memproto.Msg{Op: memproto.OpWriteReq, Offset: 2, Data: []byte{9}})
	handle(t, e, 1, wr)
	if e.Counters().CacheInvalidates != 1 {
		t.Fatalf("CacheInvalidates = %d", e.Counters().CacheInvalidates)
	}
	req := memFrame(t,
		wire.Header{Type: wire.MsgMem, Src: readerSt, Dst: homeSt, Object: obj, Seq: 21},
		memproto.Msg{Op: memproto.OpReadReq, Offset: 0, Length: 4})
	if handle(t, e, 1, req) {
		t.Fatal("read served from an invalidated line")
	}

	// ...and shadows the object: a stale pre-write response drifting in
	// afterwards must not re-seed the cache until the shadow expires.
	handle(t, e, 0, respFrame(t, obj, 0, data))
	if e.Counters().CacheInserts != 1 {
		t.Fatal("stale response re-seeded a shadowed object")
	}
	dp.fire() // shadow window expires
	handle(t, e, 0, respFrame(t, obj, 0, data))
	if e.Counters().CacheInserts != 2 {
		t.Fatal("fresh response not cached after the shadow expired")
	}
	_ = dp.take()
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

func TestGroupUnknownFloodsAndPurgeStops(t *testing.T) {
	e, dp := newGroupEngine(t, Config{Mcast: true})
	obj := gen.New()

	handle(t, e, 0, incInvFrame(t, obj, 11, 6, false)) // group 6 never installed
	if dp.floods != 1 || e.Counters().McastFloods != 1 {
		t.Fatalf("unknown group: floods=%d counter=%d", dp.floods, e.Counters().McastFloods)
	}

	if !handle(t, e, 0, incInvFrame(t, obj, 11, 0, false)) {
		t.Fatal("group-0 purge not consumed")
	}
	if got := dp.take(); len(got) != 0 {
		t.Fatalf("group-0 purge replicated: %v", got)
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

// TestObjectTableEvictionDropsCacheLine covers the coupling between
// the forwarding table and the cache: when an object's forwarding
// rule is recycled by the table's capacity policy, the cached line
// must go with it — a bypassed switch may otherwise serve stale bytes
// for an object the fabric no longer routes through it.
func TestObjectTableEvictionDropsCacheLine(t *testing.T) {
	e, dp := newCacheEngine(t)
	// A two-entry object-routing table (16-byte object key + overhead),
	// recycling LRU like the controller-programmed tables.
	const keyBytes = 16
	tbl, err := p4sim.NewTable("obj",
		[]p4sim.Key{{Field: wire.FieldObject, Kind: p4sim.MatchExact}},
		p4sim.TableConfig{
			MemoryBytes: 2 * (keyBytes + p4sim.EntryOverheadBytes),
			Eviction:    p4sim.EvictLRU,
		})
	if err != nil {
		t.Fatal(err)
	}
	e.CoupleObjectTable(tbl)

	obj := gen.New()
	route := func(o oid.ID) {
		t.Helper()
		err := tbl.Insert(p4sim.Entry{
			Match:  []p4sim.KeyValue{{Value: wire.ValueOfID(o)}},
			Action: p4sim.Action{Type: p4sim.ActForward, Port: 0},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	route(obj)
	handle(t, e, 0, respFrame(t, obj, 0, []byte{1, 2, 3, 4}))
	if e.Counters().CacheInserts != 1 {
		t.Fatal("line not cached")
	}

	// Two fresh rules push the cached object's rule out (LRU).
	route(gen.New())
	route(gen.New())
	if e.Counters().CacheInvalidates != 1 {
		t.Fatalf("CacheInvalidates = %d after rule eviction", e.Counters().CacheInvalidates)
	}
	req := memFrame(t,
		wire.Header{Type: wire.MsgMem, Src: readerSt, Dst: homeSt, Object: obj, Seq: 40},
		memproto.Msg{Op: memproto.OpReadReq, Offset: 0, Length: 4})
	if handle(t, e, 1, req) {
		t.Fatal("stale read served after the forwarding rule was evicted")
	}
	_ = dp.take()
}
