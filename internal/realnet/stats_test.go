package realnet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/wire"
)

// TestFrameCountsBalance: a frame is counted once per copy handed to a
// socket, so once the sockets drain every frame counted sent was either
// delivered or dropped — for a unicast, a broadcast to two peers, frames
// nothing can route, and a broadcast whose every write fails.
func TestFrameCountsBalance(t *testing.T) {
	rn := NewCluster()
	defer rn.Close()
	links := make([]*Link, 3)
	for i := range links {
		l, err := rn.NewLink(fmt.Sprint("n", i), wire.StationID(i+1))
		if err != nil {
			t.Fatal(err)
		}
		links[i] = l
	}
	rn.Start()
	frame := func(dst wire.StationID) backend.Frame {
		h := wire.Header{Type: wire.MsgHello, Src: 1, Dst: dst}
		fr, err := wire.Encode(&h, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	send := func(name string, fr backend.Frame, sent, dropped uint64) {
		t.Helper()
		rn.ResetStats()
		links[0].Exec(func() { links[0].SendBuf(fr, nil) })
		deadline := time.Now().Add(2 * time.Second)
		st, _ := rn.Stats()
		for st.FramesDelivered+st.FramesDropped < sent && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			st, _ = rn.Stats()
		}
		if st.FramesSent != sent || st.FramesDropped != dropped || st.FramesSent != st.FramesDelivered+st.FramesDropped {
			t.Errorf("%s: sent %d delivered %d dropped %d; want sent %d, dropped %d, sent = delivered + dropped",
				name, st.FramesSent, st.FramesDelivered, st.FramesDropped, sent, dropped)
		}
	}
	send("unicast", frame(2), 1, 0)
	send("broadcast", frame(wire.StationBroadcast), 2, 0)
	send("unknown station", frame(99), 1, 1)
	send("no header", backend.Frame{1, 2, 3}, 1, 1)
	links[0].conn.Close() // every write from here on fails
	send("broadcast, both writes failing", frame(wire.StationBroadcast), 2, 2)
}
