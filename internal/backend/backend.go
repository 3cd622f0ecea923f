// Package backend defines the seam between the protocol stack and the
// machinery that moves its frames and fires its timers. Everything
// above this package — transport, coherence, discovery, the dataplane
// mux, the workload generator — is written against two small
// interfaces:
//
//   - Clock: now/schedule/after on some notion of time;
//   - Link: a node's NIC — send a frame, receive frames, and an
//     execution context that serializes upcalls.
//
// Two implementations exist. internal/netsim provides both on a
// deterministic discrete-event simulation (virtual time, synchronous
// single-threaded delivery — every run is bit-identical per seed).
// internal/realnet provides them on wall time and per-node UDP
// sockets with reader goroutines — same stack, real kernel path, real
// scheduling jitter, real backpressure.
//
// The paper's claim is that the API, not the transport, defines the
// system; this package is that claim made structural. Nothing above
// the seam may import netsim or the time package's clock — a check
// script (scripts/checkseam.sh) gates it in CI.
package backend

import "fmt"

// Time is a timestamp in nanoseconds: virtual (since simulation
// start) under netsim, wall (since cluster start) under realnet.
type Time int64

// Duration is a span of time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Add offsets a Time by a Duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the Duration between two Times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Microseconds returns d in (possibly fractional) microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// String formats the duration in microseconds for harness output.
func (d Duration) String() string { return fmt.Sprintf("%.2fµs", d.Microseconds()) }

// Frame is a raw layer-2 frame. Frames cross the backend as bytes —
// receivers must parse them — so serialization costs are honest.
//
// Frames pass through a backend zero-copy where it can manage it:
// once handed to SendBuf the bytes are shared by every in-flight hop
// and must not be mutated. Receivers borrow the frame for the
// duration of the upcall; anything kept longer must be copied (or
// retained, for pooled frames — see FrameBuffer).
type Frame []byte

// FrameBuffer is implemented by recyclable frame buffers (see
// internal/dataplane). SendBuf consumes one reference per call: the
// backend releases it when the frame is dropped, or after the final
// delivery upcall returns (netsim, where a switch passes the reference
// on to its onward hop), or once the kernel has copied the
// bytes out (realnet), so a buffer returns to its pool only after its
// last use.
type FrameBuffer interface {
	Retain()
	Release()
}

// Timer is a cancellable scheduled callback.
type Timer interface {
	// Stop cancels the timer; the callback will not run. It reports
	// whether the call prevented a future firing. Stop is safe to
	// call from inside an upcall (it takes no backend locks).
	Stop() bool
}

// ResettableTimer is optionally implemented by timers that can be
// re-armed in place. Reset reschedules the callback to fire after d,
// whether or not the timer already fired or was stopped, and reports
// whether the call rescheduled a timer that was still pending. A
// reused timer must have a single owner: handing the Timer to other
// holders and then Resetting it would revive their stale Stop
// semantics.
type ResettableTimer interface {
	Timer
	Reset(d Duration) bool
}

// ResetTimer re-arms t to fire fn after d when t supports in-place
// reset, and otherwise stops it and arms a fresh timer on c. Hot paths
// that re-arm one timer per operation (retransmit, request timeout)
// go through this helper so the steady state allocates no timers on
// backends with resettable ones.
func ResetTimer(c Clock, t Timer, d Duration, fn func()) Timer {
	if rt, ok := t.(ResettableTimer); ok {
		rt.Reset(d)
		return rt
	}
	if t != nil {
		t.Stop()
	}
	return c.AfterFunc(d, fn)
}

// Clock is the time source and timer wheel a node runs on.
//
// Callbacks scheduled on a node's clock run serialized with that
// node's frame upcalls: under netsim because the whole simulation is
// single-threaded, under realnet because the backend wraps every
// callback in its node's upcall lock. Code above the seam may
// therefore mutate node state from timers without further locking —
// the same single-threaded model the simulator always provided.
type Clock interface {
	// Now returns the current time.
	Now() Time
	// Schedule runs fn after d elapses (d <= 0 means as soon as
	// possible, strictly after the current upcall returns under
	// netsim; best-effort immediately under realnet).
	Schedule(d Duration, fn func())
	// AfterFunc schedules fn after d and returns a Timer that can
	// cancel it.
	AfterFunc(d Duration, fn func()) Timer
}

// DaemonClock is optionally implemented by clocks that distinguish
// background housekeeping timers — work that perpetually re-arms
// itself, like consensus heartbeats and election timeouts — from
// foreground work. The simulator's drain loop (netsim.Sim.Run) stops
// when only daemon events remain, so a forever-ticking protocol
// cannot wedge "run until quiescent" callers; daemon timers still
// fire normally while foreground activity keeps time advancing. A
// wall clock needs no such distinction and simply does not implement
// the interface.
type DaemonClock interface {
	Clock
	// AfterFuncDaemon is AfterFunc for background housekeeping.
	AfterFuncDaemon(d Duration, fn func()) Timer
}

// AfterFuncDaemon schedules fn on c as a daemon timer when c supports
// the distinction, and as an ordinary timer otherwise. Protocol code
// with perpetual timers should arm them through this helper so the
// same implementation runs on both backends.
func AfterFuncDaemon(c Clock, d Duration, fn func()) Timer {
	if dc, ok := c.(DaemonClock); ok {
		return dc.AfterFuncDaemon(d, fn)
	}
	return c.AfterFunc(d, fn)
}

// Link is one node's attachment to the network: the seam the
// transport endpoint binds to.
type Link interface {
	// SendBuf transmits fr without copying; the caller relinquishes
	// the frame, which must not be mutated afterwards. buf (may be
	// nil) is the frame's reference-counted buffer, of which one
	// reference is consumed. Delivery is best-effort: frames may be
	// lost, and reliability is the transport's job.
	SendBuf(fr Frame, buf FrameBuffer)
	// SetOnFrame installs the receive upcall (nil to remove): one call
	// per arriving frame, which is borrowed for the duration of that
	// call. A link that coalesces wakeups (a netsim doorbell, a ring
	// drain) makes the calls back to back, in arrival order.
	SetOnFrame(fn func(fr Frame))
	// Clock returns the clock this node's timers run on.
	Clock() Clock
	// Exec runs fn serialized with the node's upcalls (frame
	// deliveries and timer callbacks), blocking until it returns.
	// This is how code outside the event context — a test harness, a
	// wall-clock measurement loop — safely calls into node state.
	// Exec is not reentrant: never call it from inside an upcall or
	// from inside another Exec on the same backend.
	Exec(fn func())
	// MTU returns the largest frame (header + payload) the link can
	// carry in one piece, or 0 for no limit. Senders of large
	// transfers size their fragments to it.
	MTU() int
}

// Device is anything attachable to a backend network fabric: a host
// NIC or a switch. Recv is called synchronously when a frame arrives
// on one of the device's ports.
type Device interface {
	// DevName identifies the device in traces.
	DevName() string
	// Recv handles a frame arriving on local port index port.
	Recv(port int, fr Frame)
}

// NetStats aggregates backend-wide frame counters. Both backends
// export the same counters so telemetry and experiments read one
// shape.
type NetStats struct {
	FramesSent      uint64
	FramesDelivered uint64
	FramesDropped   uint64
	BytesDelivered  uint64
}
