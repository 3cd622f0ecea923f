package transport

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// TestNumbersWidenAcrossTheWrap: a frame carries the low 32 bits of its
// sequence and ack numbers. Two endpoints that start numbering 200 short
// of 2³² run 400 request/response exchanges, one after another, across
// the wrap, with one request dropped and one response duplicated
// after it. Every exchange completes once, nothing falls below a
// duplicate window, the one duplicate is counted, and each kept reply
// is released by the requester's next mark, not by the sweep.
func TestNumbersWidenAcrossTheWrap(t *testing.T) {
	const (
		start     = 1<<32 - 200
		exchanges = 400
	)
	net, ha, hb := hosts(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond})
	sim, a, b := net.Sim(), NewEndpoint(ha, 1, Config{}), NewEndpoint(hb, 2, Config{})
	a.nextSeq, b.nextSeq = start, start
	echo(b)

	// Drop a's first request numbered past the wrap; duplicate b's first
	// response numbered past it.
	dropped, duplicated := false, false
	net.SetFrameControlHook(func(from, _ string, fr netsim.Frame) netsim.FrameControl {
		var h wire.Header
		if h.DecodeFrom(fr) != nil || h.Type != wire.MsgMem || h.Seq >= start {
			return netsim.FrameControl{}
		}
		switch {
		case from == "a" && !dropped:
			dropped = true
			return netsim.FrameControl{Drop: true}
		case from == "b" && !duplicated:
			duplicated = true
			return netsim.FrameControl{Dup: true}
		}
		return netsim.FrameControl{}
	})

	done := make([]int, exchanges)
	maxKept := uint64(0)
	var next func(i int)
	next = func(i int) {
		want := fmt.Sprint(i)
		a.Request(wire.Header{Type: wire.MsgMem, Dst: 2}, []byte(want), 0, func(_ *wire.Header, p []byte, err error) {
			if err != nil || string(p) != want {
				t.Errorf("exchange %d: %q, %v", i, p, err)
			}
			done[i]++
			maxKept = max(maxKept, b.Counters().RepliesKept)
			if i+1 < exchanges {
				next(i + 1)
			}
		})
	}
	next(0)
	sim.Run()

	for i, n := range done {
		if n != 1 {
			t.Fatalf("exchange %d completed %d times", i, n)
		}
	}
	if !dropped || !duplicated || a.nextSeq <= 1<<32 || b.nextSeq <= 1<<32 {
		t.Fatalf("dropped %v, duplicated %v, numbering ended at %d and %d: the run did not cross the wrap",
			dropped, duplicated, a.nextSeq, b.nextSeq)
	}
	ac, bc := a.Counters(), b.Counters()
	if ac.BelowWindow+bc.BelowWindow != 0 || ac.Duplicates+bc.Duplicates != 1 || ac.Retransmits != 1 {
		t.Fatalf("below window %d+%d, duplicates %d+%d, retransmits %d; want 0, 1 and 1",
			ac.BelowWindow, bc.BelowWindow, ac.Duplicates, bc.Duplicates, ac.Retransmits)
	}
	budget := Config{}
	budget.fill()
	if maxKept > 1 || bc.RepliesKept != 0 || sim.Now() >= netsim.Time(2*budget.RetryBudget) {
		t.Fatalf("up to %d replies kept at once, %d at the end of the drain at %v; want each released by the next mark",
			maxKept, bc.RepliesKept, sim.Now())
	}
}
