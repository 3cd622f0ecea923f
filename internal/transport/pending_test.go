package transport

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// TestPendingRecordSettles drives one request through each order in
// which its two halves — the reliable frame and the request — can end,
// and checks after every step that the sequence number's one record is
// in the map exactly while a half is open.
func TestPendingRecordSettles(t *testing.T) {
	type rig struct {
		sim   *netsim.Sim
		a     *Endpoint
		seq   uint64
		calls int
		err   error
	}
	// The peer is a raw host that never answers; each step hands a the
	// frames the peer would have sent.
	inject := func(r *rig, h wire.Header) {
		h.Src, h.Dst = 2, 1
		fr, err := wire.Encode(&h, []byte("re"))
		if err != nil {
			t.Fatal(err)
		}
		r.a.onFrame(fr)
	}
	ack := func(r *rig) { inject(r, wire.Header{Type: wire.MsgAck, Ack: r.seq}) }
	respond := func(r *rig) {
		inject(r, wire.Header{Type: wire.MsgMem, Seq: 900 + r.seq, Ack: r.seq, Flags: wire.FlagResponse})
	}
	untilRequestEnds := func(r *rig) {
		for r.a.PendingRequests() > 0 && r.sim.Step() {
		}
	}
	untilFrameEnds := func(r *rig) {
		for r.a.PendingFrames() > 0 && r.sim.Step() {
		}
	}
	run := func(r *rig) { r.sim.Run() }
	reset := func(r *rig) { r.a.Reset() }

	type step struct {
		do               func(*rig)
		frames, requests int // open halves after the step
	}
	fast := Config{RetransmitTimeout: 10 * netsim.Microsecond, RetryBudget: 100 * netsim.Microsecond}
	cases := []struct {
		name  string
		cfg   Config
		dst   wire.StationID
		steps []step
		calls int   // times the request's callback runs
		err   error // what it is told; nil for the response
	}{
		{"ack then response", Config{}, 2, []step{{ack, 0, 1}, {respond, 0, 0}}, 1, nil},
		{"response as the ack", Config{}, 2, []step{{respond, 0, 0}}, 1, nil},
		{"deadline before retries-out", Config{RequestTimeout: 50 * netsim.Microsecond, RetryBudget: fast.RetryBudget},
			2, []step{{untilRequestEnds, 1, 0}, {untilFrameEnds, 0, 0}}, 1, ErrTimeout},
		{"retries-out before deadline", fast, 2, []step{{untilFrameEnds, 0, 1}, {run, 0, 0}}, 1, ErrTimeout},
		{"broadcast request", Config{}, wire.StationBroadcast, []step{{run, 0, 0}}, 1, ErrTimeout},
		{"reset with both halves open", Config{}, 2, []step{{reset, 0, 0}, {run, 0, 0}}, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, ha, hb := hosts(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond})
			hb.SetOnFrame(func(netsim.Frame) {})
			base := dataplane.LiveBufs()
			r := &rig{sim: net.Sim(), a: NewEndpoint(ha, 1, tc.cfg)}
			seq, err := r.a.Request(wire.Header{Type: wire.MsgMem, Dst: tc.dst}, []byte("q"), 0,
				func(_ *wire.Header, _ []byte, err error) { r.calls, r.err = r.calls+1, err })
			if err != nil {
				t.Fatal(err)
			}
			r.seq = seq
			frames := 1
			if tc.dst == wire.StationBroadcast {
				frames = 0
			}
			check := func(at string, frames, requests int) {
				t.Helper()
				records := len(r.a.pending)
				if f, q := r.a.PendingFrames(), r.a.PendingRequests(); f != frames || q != requests || records != min(1, frames+requests) {
					t.Fatalf("%s: %d frames, %d requests, %d records; want %d, %d, %d",
						at, f, q, records, frames, requests, min(1, frames+requests))
				}
			}
			check("sent", frames, 1)
			for i, s := range tc.steps {
				s.do(r)
				check(fmt.Sprintf("step %d", i+1), s.frames, s.requests)
			}
			r.sim.Run() // frames still on the wire are delivered, and nothing fires late
			check("drained", 0, 0)
			switch {
			case r.calls != tc.calls:
				t.Errorf("callback ran %d times, want %d", r.calls, tc.calls)
			case !errors.Is(r.err, tc.err):
				t.Errorf("callback told %v, want %v", r.err, tc.err)
			}
			if live := dataplane.LiveBufs(); live != base {
				t.Errorf("LiveBufs = %d after the request settled, %d before it", live, base)
			}
		})
	}
}
