package core

import (
	"context"

	"repro/internal/future"
)

// Await blocks until f resolves, honoring ctx cancellation and
// deadlines, and works on both backends:
//
//   - Under the simulator it pumps the event loop one event at a time
//     until the future resolves, so unrelated queued work is not
//     drained. If the simulation quiesces without resolving f, the
//     operation can never complete and ErrNotReady is returned.
//   - Under realnet it parks on the future; completions arrive from
//     socket-reader upcalls on their own goroutines.
//
// This is the bridge that lets one program — issue, await, use the
// value — run unchanged over virtual and wall time.
func Await[T any](ctx context.Context, c *Cluster, f *Future[T]) (T, error) {
	if c.Sim != nil {
		for i := 0; !f.Done(); i++ {
			if i%ctxPollSteps == 0 && ctx.Err() != nil {
				var zero T
				return zero, ctx.Err()
			}
			if !c.Sim.Step() {
				break // quiesced unresolved: Result reports ErrNotReady
			}
		}
		return f.Result()
	}
	return f.Await(ctx)
}

// ctxPollSteps is how many simulator events Await runs between reads of
// its context, which take a lock: a cancellation is seen up to that many
// events late, one that came before Await at once.
const ctxPollSteps = 256

// ErrNotReady reports that a future's Result was read before the
// simulation resolved it.
var ErrNotReady = future.ErrNotReady

// Future is a promise-style handle on an asynchronous result, the one
// form an operation on a reference returns (Invoke alone takes a
// callback). A Future never blocks by itself: it resolves when the
// backend delivers the outcome — during Cluster.Run (or any Sim.Run
// variant) under the simulator, from a socket-reader upcall under
// realnet — and Result reads it afterwards, or Await waits for it on
// either backend:
//
//	f := node.Deref(ref)
//	cluster.Run()
//	obj, err := f.Result()
//
// Then chains work onto resolution without waiting for it.
//
// The implementation lives in internal/future so coherence, below
// core, returns the same promises.
type Future[T any] = future.Future[T]
