package dataplane

import "repro/internal/backend"

// This file holds the bare SPSC ring of refcounted Bufs: the
// shared-memory queue of "Telepathic Datacenters", under the same Buf
// ownership rules as the rest of the dataplane. It has no locks or
// atomics, and no link runs frames through it; bench's
// dataplane.ring_push_drain row measures one push and pop.

// Ring is a bounded FIFO queue of in-flight frames between one
// producer and one consumer. A pushed frame's buffer reference is
// owned by the ring until the consumer releases it after delivery;
// a push that finds the ring full fails and the producer must count
// and release the frame (same contract as a dropped link frame).
type Ring struct {
	slots []ringSlot
	head  int // next pop
	tail  int // next push
	n     int
}

type ringSlot struct {
	fr  backend.Frame
	buf backend.FrameBuffer
}

// NewRing creates a ring with the given capacity.
func NewRing(slots int) *Ring {
	return &Ring{slots: make([]ringSlot, slots)}
}

// Push enqueues a frame, taking ownership of one buf reference.
// It reports false (without taking ownership) when the ring is full.
func (r *Ring) Push(fr backend.Frame, buf backend.FrameBuffer) bool {
	if r.n == len(r.slots) {
		return false
	}
	r.slots[r.tail] = ringSlot{fr: fr, buf: buf}
	r.tail++
	if r.tail == len(r.slots) {
		r.tail = 0
	}
	r.n++
	return true
}

// Pop dequeues the oldest frame. The caller assumes the ring's buffer
// reference and must Release it after the frame is consumed.
func (r *Ring) Pop() (backend.Frame, backend.FrameBuffer, bool) {
	if r.n == 0 {
		return nil, nil, false
	}
	s := r.slots[r.head]
	r.slots[r.head] = ringSlot{}
	r.head++
	if r.head == len(r.slots) {
		r.head = 0
	}
	r.n--
	return s.fr, s.buf, true
}

// Len reports the number of queued frames.
func (r *Ring) Len() int { return r.n }
