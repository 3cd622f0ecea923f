// Package future provides the one async form of the repo's operations:
// a Future[T] resolved by whichever backend the stack runs on. It sits
// below core so that coherence and core return the same futures
// without an import cycle.
//
// Futures are safe for concurrent use: under the simulator everything
// is single-threaded and the locking is uncontended overhead, but
// under the realnet backend completions arrive from reader-goroutine
// upcalls while a harness goroutine blocks in Await.
//
// A future costs one allocation, itself: an operation resolves it as a
// Sink, and its first Then subscriber is kept inline.
package future

import (
	"context"
	"errors"
	"sync"
)

// ErrNotReady reports that a future's Result was read before the
// backend resolved it.
var ErrNotReady = errors.New("future: not resolved yet")

// Sink receives an operation's outcome exactly once. *Future[T] is a
// Sink, and Func[T] makes one of a plain callback; each is one pointer
// word, so handing either to an operation as a Sink allocates nothing.
type Sink[T any] interface {
	Resolve(v T, err error)
}

// Func adapts a callback to a Sink.
type Func[T any] func(T, error)

// Resolve calls fn.
func (fn Func[T]) Resolve(v T, err error) { fn(v, err) }

// Future is a promise-style handle on an asynchronous result. The
// zero Future is unresolved and ready to use; it is its one allocation,
// and its first Then subscriber adds none.
//
// Under the simulator a Future never blocks — it resolves during
// Cluster.Run (or any Sim.Run variant), and Result is read
// afterwards:
//
//	f := node.Coherence.AcquireShared(obj)
//	cluster.Run()
//	o, err := f.Result()
//
// Under a wall-clock backend there is no "run until quiet" to lean
// on; Await blocks the calling goroutine until resolution, a context
// deadline, or cancellation. Then chains work onto resolution without
// waiting for it.
type Future[T any] struct {
	mu    sync.Mutex
	done  bool
	val   T
	err   error
	first func(T, error)   // the first Then subscriber, kept inline
	subs  []func(T, error) // later subscribers, in registration order
	ready chan struct{}    // lazily made by the first Await
}

// New creates an unresolved future and its completion function.
func New[T any]() (*Future[T], func(T, error)) {
	f := &Future[T]{}
	return f, f.Resolve
}

// Resolve settles f. Only the first call wins, matching the "exactly
// once" contract of the callback APIs it serves.
func (f *Future[T]) Resolve(v T, err error) {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return
	}
	f.done = true
	f.val, f.err = v, err
	first, subs := f.first, f.subs
	f.first, f.subs = nil, nil
	if f.ready != nil {
		close(f.ready)
	}
	// Callbacks run outside the lock so a subscriber may chain another
	// Then (or Await) on this same future without self-deadlocking.
	f.mu.Unlock()
	if first != nil {
		first(v, err)
	}
	for _, fn := range subs {
		fn(v, err)
	}
}

// Done reports whether the future has resolved.
func (f *Future[T]) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// Result returns the resolved value or error. Reading before
// resolution returns ErrNotReady (with a zero value): run the
// simulation (or Await) first.
func (f *Future[T]) Result() (T, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.done {
		var zero T
		return zero, ErrNotReady
	}
	return f.val, f.err
}

// Then runs fn when the future resolves (immediately if it already
// has). Multiple callbacks run in registration order.
func (f *Future[T]) Then(fn func(T, error)) *Future[T] {
	f.mu.Lock()
	switch {
	case f.done:
		v, err := f.val, f.err
		f.mu.Unlock()
		fn(v, err)
		return f
	case f.first == nil:
		f.first = fn
	default:
		f.subs = append(f.subs, fn)
	}
	f.mu.Unlock()
	return f
}

// Await blocks until the future resolves or ctx ends, returning the
// resolution (or ctx.Err with a zero value). This is the wall-clock
// waiting primitive: completions arrive from another goroutine's
// upcall. Under the simulator nothing advances the clock while a bare
// Await blocks — use core.Await, which pumps the event loop.
func (f *Future[T]) Await(ctx context.Context) (T, error) {
	f.mu.Lock()
	if f.done {
		v, err := f.val, f.err
		f.mu.Unlock()
		return v, err
	}
	if f.ready == nil {
		f.ready = make(chan struct{})
	}
	ch := f.ready
	f.mu.Unlock()
	select {
	case <-ch:
		return f.Result()
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}
