package transport

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// inject hands b a reliable frame numbered seq from station src, as if
// it had just come off the link.
func inject(t *testing.T, b *Endpoint, src wire.StationID, seq uint64) {
	t.Helper()
	h := wire.Header{Type: wire.MsgMem, Src: src, Dst: b.Station(), Seq: seq, Flags: wire.FlagReliable}
	fr, err := wire.Encode(&h, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.onFrame(fr)
}

// TestDuplicateWindow walks one source's window through everything a
// lossy, reordering path does to a numbered stream: repeats, gaps,
// frames that fill a gap late, a jump that slides the window over
// positions it used before, and frames older than it reaches.
func TestDuplicateWindow(t *testing.T) {
	sim, _, b := pair(t, netsim.LinkConfig{}, Config{})
	var got []uint64
	b.SetHandler(func(h *wire.Header, _ []byte) { got = append(got, h.Seq) })
	steps := []struct {
		seq                     uint64
		fresh, duplicate, below bool
	}{
		{seq: 1, fresh: true},
		{seq: 2, fresh: true},
		{seq: 2, duplicate: true},
		{seq: 10, fresh: true}, // a gap: 3..9 went to other stations, or were lost
		{seq: 7, fresh: true},  // reordered into the gap
		{seq: 7, duplicate: true},
		{seq: 1, duplicate: true},
		{seq: 2 + dedupWindow - 1, fresh: true}, // 2 is now the oldest number remembered
		{seq: 2, duplicate: true},
		{seq: 3, fresh: true},
		{seq: 1, below: true},
		{seq: 2 + dedupWindow, fresh: true}, // same bit position as 2: the slide must have cleared it
		{seq: 2 + dedupWindow, duplicate: true},
		{seq: 7 + dedupWindow, fresh: true}, // as 7, reached from above
		{seq: 7, below: true},
		{seq: 8, fresh: true},       // the oldest number in the window, never seen
		{seq: 1 << 30, fresh: true}, // a jump of more than a window
		{seq: 1<<30 - 1, fresh: true},
		{seq: 1<<30 - dedupWindow + 1, fresh: true},
		{seq: 1<<30 - dedupWindow, below: true},
		{seq: 7 + dedupWindow, below: true},
	}
	var want []uint64
	var wantC Counters
	for i, st := range steps {
		inject(t, b, 1, st.seq)
		switch {
		case st.fresh:
			want = append(want, st.seq)
			wantC.Delivered++
			wantC.AcksSent++
		case st.duplicate:
			wantC.Duplicates++
			wantC.AcksSent++ // the first ack may have been lost
		case st.below:
			wantC.BelowWindow++ // no ack: nothing is known about this frame
		}
		c := b.Counters()
		if fmt.Sprint(got) != fmt.Sprint(want) || c != wantC {
			t.Fatalf("step %d (seq %d): dispatched %v, want %v\ncounters %+v\nwant     %+v",
				i, st.seq, got, want, c, wantC)
		}
	}
	sim.Run()
}

// TestTwoSourcesKeepSeparateWindows: every source numbers from its own
// counter, so equal numbers from two stations are two frames, and one
// station running far ahead pushes nothing of the other's below a
// window.
func TestTwoSourcesKeepSeparateWindows(t *testing.T) {
	sim, _, b := pair(t, netsim.LinkConfig{}, Config{})
	delivered := 0
	b.SetHandler(func(*wire.Header, []byte) { delivered++ })
	for seq := uint64(1); seq <= 5; seq++ {
		inject(t, b, 1, seq)
		inject(t, b, 3, seq)
	}
	inject(t, b, 3, 1<<30)
	inject(t, b, 1, 6)
	inject(t, b, 1, 4) // a duplicate, of station 1's frame only
	inject(t, b, 3, 4) // below station 3's window, and only there
	sim.Run()
	c := b.Counters()
	if delivered != 12 || c.Duplicates != 1 || c.BelowWindow != 1 {
		t.Fatalf("delivered %d (want 12), counters %+v", delivered, c)
	}
	if len(b.sources) != 2 {
		t.Fatalf("%d windows for 2 sources", len(b.sources))
	}
}

// TestFrameBelowTheWindowFailsHonestly: a receiver that can no longer
// tell a frame from a duplicate neither dispatches nor acknowledges it,
// so its sender retries and then reports the frame undelivered — and a
// receiver that restarts has forgotten its windows with everything
// else.
func TestFrameBelowTheWindowFailsHonestly(t *testing.T) {
	sim, a, b := pair(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond},
		Config{RetransmitTimeout: 20 * netsim.Microsecond, RetryBudget: 200 * netsim.Microsecond})
	delivered := 0
	b.SetHandler(func(*wire.Header, []byte) { delivered++ })
	inject(t, b, 1, 3*dedupWindow) // station 1 is, as far as b knows, long past its first frames
	sim.Run()

	err := errors.New("completion never ran")
	a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("x"), func(e error) { err = e })
	sim.Run()
	ac, bc := a.Counters(), b.Counters()
	if !errors.Is(err, ErrRetriesOut) {
		t.Fatalf("sender got %v, want ErrRetriesOut", err)
	}
	if delivered != 1 || bc.AcksSent != 1 || ac.AcksReceived != 1 {
		t.Fatalf("dispatched %d frames, acked %d (sender counted %d); want only the injected one",
			delivered, bc.AcksSent, ac.AcksReceived)
	}
	if ac.Retransmits == 0 || bc.BelowWindow != 1+ac.Retransmits {
		t.Fatalf("%d frames below the window, sender retransmitted %d times", bc.BelowWindow, ac.Retransmits)
	}

	b.Reset()
	err = errors.New("completion never ran")
	a.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte("y"), func(e error) { err = e })
	sim.Run()
	if err != nil || delivered != 2 {
		t.Fatalf("after Reset: err %v, %d frames dispatched; want the frame delivered", err, delivered)
	}
}
