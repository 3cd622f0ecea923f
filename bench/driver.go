package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/workload"
)

const numKinds = 4 // workload.OpRead .. workload.OpInvoke

// driver issues operations from node 0 through the futures API, checks
// every output, and records each counted op's latency from its intended
// start on the cluster's clock (virtual under netsim, wall under
// realnet). It is the workload.Target the open-loop runner drives and
// the issue path of the bench's own closed loops.
type driver struct {
	cl   *core.Cluster
	pop  *population
	node *core.Node

	// Ops whose intended start lies in [winStart, winEnd) are counted.
	winStart, winEnd backend.Time

	free     []*opState
	coldNext int

	doneAll                      uint64 // ops finished, counted or not
	attempted, completed, failed uint64
	inflight                     int // counted ops issued and not yet done
	bytes                        uint64
	lat                          [numKinds][]backend.Duration
	genLag                       []backend.Duration
	lastDone                     backend.Time // clock at the last counted completion
	wrong                        uint64       // outputs that did not match
	// checking is the host time spent digesting acquired objects: 83 us
	// for 64 KiB, more than the rest of a bulk op takes. It is the
	// bench's own work, and comes out of every wall-clock figure.
	checking              time.Duration
	firstWrong, firstFail error
}

// opState is one in-flight operation. States are pooled with their
// completion callbacks bound once, so the bench adds no allocation of
// its own to the per-op count it reports.
type opState struct {
	d        *driver
	kind     workload.OpKind
	idx      int // warm-object index, or -1 for a cold object
	id       oid.ID
	rec      []byte // the record read or written: the object's own pattern
	size     int    // object bytes an acquire moves each way
	intended backend.Time
	counted  bool
	done     func(error)

	onRead   func([]byte, error)
	onWrite  func(struct{}, error)
	onAcq    func(*object.Object, error)
	onRel    func(struct{}, error)
	onInvoke func(core.InvokeResult, error)
	args     [1]object.Global
}

func newDriver(cl *core.Cluster, pop *population, expectOps int) *driver {
	d := &driver{cl: cl, pop: pop, node: cl.Node(0)}
	// Sample storage is sized before the measured phase so appends do
	// not show up in allocs_per_op.
	for k := range d.lat {
		d.lat[k] = make([]backend.Duration, 0, expectOps)
	}
	d.genLag = make([]backend.Duration, 0, expectOps)
	return d
}

// release lets go of the cluster and the pooled op states once the pass
// is over; its counts and samples stay.
func (d *driver) release() { d.cl, d.node, d.pop, d.free = nil, nil, nil, nil }

// dropSamples frees the latency samples of a pass only its counts are
// wanted from.
func (d *driver) dropSamples() {
	d.lat = [numKinds][]backend.Duration{}
	d.genLag = nil
}

func (d *driver) get() *opState {
	if k := len(d.free) - 1; k >= 0 {
		st := d.free[k]
		d.free = d.free[:k]
		return st
	}
	st := &opState{d: d}
	st.onRead = st.readDone
	st.onWrite = func(_ struct{}, err error) { st.finish(err, len(st.rec)) }
	st.onAcq = st.acquired
	st.onRel = func(_ struct{}, err error) { st.finish(err, 2*st.size) }
	st.onInvoke = func(_ core.InvokeResult, err error) { st.finish(err, 0) }
	return st
}

// Issue implements workload.Target. The key picks a warm object; a cold
// op consumes the next never-discovered object instead (falling back to
// the warm pool if the cold pool runs dry, which the sizing avoids).
func (d *driver) Issue(op workload.Op, done func(error)) {
	d.issue(op.Kind, op.Key%len(d.pop.warm), op.Cold, op.Intended, done)
}

func (d *driver) issue(kind workload.OpKind, idx int, cold bool, intended backend.Time, done func(error)) {
	st := d.get()
	st.kind, st.idx, st.intended, st.done = kind, idx, intended, done
	st.id, st.rec, st.size = d.pop.warm[idx], d.pop.pattern[idx], d.pop.size[idx]
	if cold && d.coldNext < len(d.pop.cold) {
		// A cold object is used once; its contents are not checked, so
		// it borrows the warm object's record for length and bytes.
		st.idx, st.id = -1, d.pop.cold[d.coldNext]
		d.coldNext++
	}
	st.counted = intended >= d.winStart && intended < d.winEnd
	if st.counted {
		d.attempted++
		d.inflight++
		d.genLag = append(d.genLag, d.cl.Clock.Now().Sub(intended))
	}
	coh := d.node.Coherence
	switch kind {
	case workload.OpWrite:
		coh.WriteAt(st.id, ioOff, st.rec).Then(st.onWrite)
	case workload.OpAcquireRelease:
		coh.AcquireExclusive(st.id).Then(st.onAcq)
	case workload.OpInvoke:
		st.args[0] = object.Global{Obj: st.id}
		d.node.Invoke(d.pop.code, st.args[:], st.onInvoke)
	default:
		coh.ReadAt(st.id, ioOff, len(st.rec)).Then(st.onRead)
	}
}

func (st *opState) readDone(b []byte, err error) {
	if err == nil && st.idx >= 0 && !bytes.Equal(b, st.rec) {
		st.d.mismatch("read of object %d returned %x, want %x", st.idx, b, st.rec)
	}
	st.finish(err, len(st.rec))
}

func (st *opState) acquired(o *object.Object, err error) {
	if err != nil {
		st.finish(err, 0)
		return
	}
	if st.idx >= 0 {
		t0 := time.Now()
		sum := o.Checksum()
		st.d.checking += time.Since(t0)
		if sum != st.d.pop.digest[st.idx] {
			st.d.mismatch("acquire of object %d: digest %#x, want %#x", st.idx, sum, st.d.pop.digest[st.idx])
		}
	}
	st.d.node.Coherence.Release(st.id).Then(st.onRel)
}

func (d *driver) mismatch(format string, args ...any) {
	d.wrong++
	if d.firstWrong == nil {
		d.firstWrong = fmt.Errorf(format, args...)
	}
}

// finish records the outcome. payload is the useful object bytes the op
// moved (headers and retransmissions excluded).
func (st *opState) finish(err error, payload int) {
	d := st.d
	d.doneAll++
	if st.counted {
		d.inflight--
		d.lastDone = d.cl.Clock.Now()
		if err != nil {
			d.failed++
			if d.firstFail == nil {
				d.firstFail = fmt.Errorf("%s failed: %w", st.kind, err)
			}
		} else {
			d.completed++
			d.bytes += uint64(payload)
			d.lat[st.kind] = append(d.lat[st.kind], d.lastDone.Sub(st.intended))
		}
	}
	done := st.done
	st.done = nil
	d.free = append(d.free, st)
	done(err)
}
