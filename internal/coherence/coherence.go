// Package coherence implements object-granularity cache coherence over
// the memory protocol: each object's home node keeps a directory of
// copy holders; readers acquire shared copies, writers invalidate
// sharers, and every access carries a version so stale data is fenced.
//
// This is the "additional message types" layer of §3.2 (acquire,
// grant, invalidate, release — TileLink-style) and the infrastructure
// that absorbs the caching/invalidation logic applications otherwise
// reimplement (§3, §5).
//
// It also implements the stale-location retry the E2E discovery scheme
// needs (Figure 3): an access that reaches a node which no longer
// holds the object gets StatusNotFound, invalidates the requester's
// destination cache, re-resolves (broadcast), and retries.
package coherence

import (
	"bytes"
	"fmt"
	"maps"
	"slices"

	"repro/internal/backend"
	"repro/internal/discovery"
	"repro/internal/future"
	"repro/internal/gasperr"
	"repro/internal/memproto"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Errors surfaced by coherence operations. Both wrap the gasperr
// taxonomy: retries exhausting means the holder was unreachable.
var (
	ErrNotFound   = fmt.Errorf("coherence: object not found anywhere: %w", gasperr.ErrNotFound)
	ErrMaxRetries = fmt.Errorf("coherence: access retries exhausted: %w", gasperr.ErrUnreachable)
)

// maxAccessAttempts bounds stale-location retries: initial attempt,
// one rediscovery, one final retry.
const maxAccessAttempts = 3

// Counters aggregates coherence statistics.
type Counters struct {
	LocalHits       uint64
	RemoteAcquires  uint64
	RemoteReads     uint64
	RemoteWrites    uint64
	GrantsServed    uint64
	UpgradesServed  uint64 // of those, grants that moved no bytes: the requester held the home's version
	ReadsServed     uint64
	WritesServed    uint64
	InvalidatesSent uint64
	InvalidatesRecv uint64
	StaleRetries    uint64
	NotFoundServed  uint64
	DeniedServed    uint64
	NotHomeServed   uint64
	Releases        uint64
	// Completed data grants (at the acquirer) and releases (at the home)
	// that landed in a recycled region, and those that allocated one. A
	// data-less grant lands nowhere and counts in neither.
	RegionsReused    uint64
	RegionsAllocated uint64
}

// fetchState is the pooled per-fetch state of an acquire: its request,
// the reassembly of the grant, and the acquires waiting on it. The
// request is an accessOp like any other, run through the same
// resolve→request→stale-retry loop; it belongs to the fetch, is pooled
// with it and never recycled alone, so a continuation that outlives the
// fetch finds it gone from Node.fetches and stops. Instances cycle
// through Node.fetchFree.
type fetchState struct {
	req     accessOp // its obj and m.Perm name the fetch
	re      memproto.Reassembler
	waiters []*accessOp
	leases  int           // how many waiters are exclusive acquirers holding a lease
	perm    memproto.Perm // highest permission the grant carried
	// held is the node's own copy, which req.m offers at its version and
	// a data-less grant completes the fetch with (nil: no offer). Data
	// lands in its region, so the first data fragment withdraws the offer.
	held []byte
	// epoch and version are the directory epoch and the version of the
	// grant this attempt took its first fragment from (epoch 0 before
	// one arrives). During the attempt, inv is the newest epoch of an
	// invalidate the node acked, floor the newest version one of its
	// reads or writes returned.
	epoch, version, inv, floor uint64
	watchdog                   backend.Timer
	stallFn                    func()
}

// putFetch clears per-fetch state and returns f to the free list. The
// request's bound callbacks and the (stopped) watchdog timer are kept —
// they are the expensive parts reuse exists for.
func (n *Node) putFetch(f *fetchState) {
	clear(f.waiters)
	f.req.reset()
	*f = fetchState{req: f.req, waiters: f.waiters[:0], watchdog: f.watchdog, stallFn: f.stallFn}
	n.fetchFree = append(n.fetchFree, f)
}

// armStall (re)arms a transfer's watchdog t after partial progress, so
// a transfer of one fragment never schedules one. Reset consumes one
// event sequence number, exactly like the fresh AfterFunc it replaces,
// so timer reuse is bit-identical to the old arm-per-progress schedule.
func (n *Node) armStall(t backend.Timer, stallFn func()) backend.Timer {
	return backend.ResetTimer(n.clock, t, memproto.StallTimeout, stallFn)
}

// stall is the pre-bound watchdog callback.
func (f *fetchState) stall() {
	n, obj := f.req.n, f.req.obj
	if n.fetches[obj] != f { // completed, or a successor fetch
		return
	}
	n.finishFetch(obj, nil, fmt.Errorf("%w: object transfer stalled", ErrMaxRetries))
}

// dropStale drops the grant the attempt is taking, and acquires
// afresh, once an invalidate the node acked is at least as new, or a
// read or write of the node returned a newer version. The home
// registered this station for the grant before it sent the invalidate,
// and removes the registration on the ack, so completing the grant
// would install a copy the home no longer tracks; and a copy older
// than a version the node has seen would take its reads back in time.
// The news may outrun the whole grant (its first transmission lost) or
// straggler fragments of it; either way it is checked when the grant's
// side becomes known too. A fresh attempt starts knowing nothing, so a
// home whose epochs restarted (a promoted replica) costs at most one
// more request.
func (f *fetchState) dropStale() bool {
	if f.epoch == 0 || f.epoch > f.inv && f.version >= f.floor {
		return false
	}
	f.re = memproto.Reassembler{}
	if f.watchdog != nil {
		f.watchdog.Stop()
	}
	f.withdraw()
	f.perm = memproto.PermNone
	f.epoch, f.version, f.inv, f.floor = 0, 0, 0, 0
	f.req.tc = trace.Ctx{}
	f.req.attempt = 1
	f.req.begin()
	return true
}

// withdraw takes back the request's offer of the node's own copy.
func (f *fetchState) withdraw() { f.held, f.req.m.Version = nil, 0 }

// Node is one host's coherence engine.
type Node struct {
	ep       *transport.Endpoint
	store    *store.Store
	resolver discovery.Resolver
	clock    backend.Clock

	directory *Directory
	fetches   map[oid.ID]*fetchState
	releases  map[releaseKey]*releaseState
	granted   map[oid.ID]memproto.Perm
	leases    map[oid.ID]int // per object: exclusive copies handed out, Release unacked
	twins     map[oid.ID]twin
	scratch   [][]byte // release regions and twins; never an object's, a caller's or the store's

	tracer    *trace.Recorder
	observers []Observer
	counters  Counters

	// Hot-path recycling: tx is the scratch every send encodes its
	// message prefix into (see prefix), and the free lists hold recycled
	// per-operation state with pre-bound callbacks.
	tx           []byte
	accessFree   []*accessOp
	fetchFree    []*fetchState
	relStateFree []*releaseState
}

// RecordKind says what a Record records; the five operations come first.
type RecordKind uint8

// Record kinds.
const (
	RecRead RecordKind = iota
	RecWrite
	RecAcquireShared
	RecAcquireExclusive
	RecRelease
	RecPublish       // a home committed a write or a release: Bytes is the whole object
	RecInvalidateAck // a sharer acked an invalidate: Version is the copy it dropped, 0 for none
)

func (k RecordKind) String() string {
	return [...]string{"read", "write", "acquire_shared", "acquire_exclusive", "release", "publish", "invalidate_ack"}[k]
}

// Record is one event at one station. An operation's record is
// delivered exactly when its caller learns the outcome, before its
// callback runs — local hits too: an operation is an operation wherever
// it completes. Version is the version it read (a read, an acquire) or
// published (a write, a release), and Bytes is a view of the bytes it
// returned or wrote, valid only during the observer call.
type Record struct {
	Station          wire.StationID
	Obj              oid.ID
	Kind             RecordKind
	Off              uint64
	Version          uint64
	Bytes            []byte
	Invoke, Response backend.Time // equal unless the event took a round trip
	Trace            uint64       // the operation's trace ID, 0 when unsampled
	Err              error
}

// Observer receives records. A node with no observer builds none, and
// building one allocates nothing.
type Observer func(Record)

// twin is an exclusive grant's bytes as granted, at its version
// (TreadMarks' twin): a release of a copy still equal to its twin sends
// nothing. It lives exactly as long as the grant.
type twin struct {
	version uint64
	b       []byte
}

type releaseKey struct {
	src wire.StationID
	obj oid.ID
}

// maxFragData sizes grant fragments to the endpoint's link MTU, capped
// at the memproto.MaxFragData transfer unit, which 0 (no link limit —
// the simulator) selects.
func (n *Node) maxFragData() int {
	mtu := n.ep.MTU()
	if mtu <= 0 {
		return 0
	}
	return memproto.FragDataFor(mtu - wire.TracedHeaderSize)
}

// NewNode creates a coherence engine over an endpoint, a local store,
// and a resolver.
func NewNode(ep *transport.Endpoint, st *store.Store, res discovery.Resolver) *Node {
	return &Node{
		ep:        ep,
		store:     st,
		resolver:  res,
		clock:     ep.Clock(),
		directory: NewDirectory(),
		fetches:   make(map[oid.ID]*fetchState),
		releases:  make(map[releaseKey]*releaseState),
		granted:   make(map[oid.ID]memproto.Perm),
		leases:    make(map[oid.ID]int),
		twins:     make(map[oid.ID]twin),
	}
}

// SetTracer attaches a span recorder: each public operation becomes a
// sampled trace root whose context rides the wire to every hop.
func (n *Node) SetTracer(r *trace.Recorder) { n.tracer = r }

// AddObserver installs fn beside the observers already installed.
func (n *Node) AddObserver(fn Observer) { n.observers = append(n.observers, fn) }

// record stamps r with this station and the instant and hands it to
// every observer.
func (n *Node) record(r Record) {
	r.Station, r.Response = n.ep.Station(), n.clock.Now()
	for _, fn := range n.observers {
		fn(r)
	}
}

// recordNow records an event that took no time: e is the copy it used
// (nil for none), b the bytes it returned or wrote.
func (n *Node) recordNow(tr uint64, kind RecordKind, obj oid.ID, off uint64, e *store.Entry, b []byte, err error) {
	if n.observers == nil {
		return
	}
	r := Record{Obj: obj, Kind: kind, Off: off, Bytes: b, Invoke: n.clock.Now(), Trace: tr, Err: err}
	if e != nil {
		r.Version = e.Version
	}
	n.record(r)
}

// Counters returns a copy of the statistics.
func (n *Node) Counters() Counters { return n.counters }

// ResetCounters zeroes the statistics.
func (n *Node) ResetCounters() { n.counters = Counters{} }

// Store returns the node's object store.
func (n *Node) Store() *store.Store { return n.store }

// Directory exposes the node's sharer directory (read-mostly: the
// checker and telemetry inspect it; mutation stays inside this
// package's protocol handlers).
func (n *Node) Directory() *Directory { return n.directory }

// AddSharer records st as a copy holder of a home object — used to
// rebuild the directory when this node is promoted to home after the
// previous home crashed and its directory died with it.
func (n *Node) AddSharer(obj oid.ID, st wire.StationID) {
	if st == n.ep.Station() {
		return
	}
	n.directory.Add(obj, st)
}

// SharerSet returns the directory's recorded copy holders of a home
// object, sorted for deterministic iteration. The directory may
// over-approximate (an evicted copy lingers until the next
// invalidation round); it must never under-approximate a live copy.
func (n *Node) SharerSet(obj oid.ID) []wire.StationID {
	return n.directory.SharerSet(obj)
}

// GrantedPerm reports the coherence permission this node holds on its
// cached copy of obj: PermNone when no copy is present (never granted,
// invalidated, or silently evicted). Home copies report PermNone —
// authority is not a grant.
func (n *Node) GrantedPerm(obj oid.ID) memproto.Perm {
	p, ok := n.granted[obj]
	if !ok || !n.store.Contains(obj) {
		return memproto.PermNone
	}
	return p
}

// PendingFetches lists the objects with a fetch in flight, sorted — the
// checker's input for the no-fetch-left-at-quiescence invariant.
func (n *Node) PendingFetches() []oid.ID {
	return slices.SortedFunc(maps.Keys(n.fetches), oid.ID.Compare)
}

// Reset abandons all coherence state — directory, in-flight fetches
// and release reassembly — modeling a process crash. Pending fetch
// callbacks are dropped without being invoked (their continuations
// died with the process).
func (n *Node) Reset() {
	n.directory.Reset()
	n.fetches = make(map[oid.ID]*fetchState)
	n.releases = make(map[releaseKey]*releaseState)
	n.granted = make(map[oid.ID]memproto.Perm)
	n.leases = make(map[oid.ID]int)
	n.twins = make(map[oid.ID]twin)
}

// prefix encodes m without its Data into the node's transmit scratch.
// Every send hands the transport (prefix, m.Data); Data — a caller's
// bytes, or a slice of an object's own region — is copied once, into
// the pooled frame, before the send returns, so the scratch is free
// again and the region may change as soon as it does.
func (n *Node) prefix(m *memproto.Msg) []byte {
	n.tx = m.MarshalHeader(n.tx[:0])
	return n.tx
}

// respond answers a memory-protocol request.
func (n *Node) respond(req *wire.Header, m *memproto.Msg) {
	n.ep.RespondV(req, wire.Header{Type: wire.MsgMem, Object: req.Object}, n.prefix(m), m.Data)
}

// --- access paths (requester side) ---

// opFinish ends an operation's root span exactly when its caller learns
// the outcome, recording any error, so its duration is the externally
// observable latency. Every local hit ends here, after its record, and
// every remote op through accessOp.finish.
func (n *Node) opFinish(sp *trace.Span, err error) {
	if sp != nil {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
}

// AcquireShared obtains a (possibly cached) copy of obj, fetching and
// caching it from its holder if needed. The returned future resolves
// as the simulation runs.
func (n *Node) AcquireShared(obj oid.ID) *future.Future[*object.Object] {
	f := new(future.Future[*object.Object])
	sp := n.tracer.StartRoot("op:acquire-shared")
	if e, ok := n.store.Lookup(obj); ok {
		n.counters.LocalHits++
		sp.SetAttr("local", "hit")
		e.Recyclable = false // handed out without a lease
		n.recordNow(sp.Ctx().Trace, RecAcquireShared, obj, 0, e, e.Obj.Bytes(), nil)
		n.opFinish(sp, nil)
		f.Resolve(e.Obj, nil)
		return f
	}
	op := n.newOp(obj, RecAcquireShared, sp)
	op.m = memproto.Msg{Op: memproto.OpAcquire, Perm: memproto.PermShared}
	op.got = f
	n.acquire(op, nil)
	return f
}

// AcquireExclusive obtains a copy with exclusive permission: the home
// invalidates every other cached copy before granting, so the caller
// may mutate its copy and push it back with Release. If this node is
// the home, sharers are invalidated and the authoritative copy is
// returned directly.
func (n *Node) AcquireExclusive(obj oid.ID) *future.Future[*object.Object] {
	f := new(future.Future[*object.Object])
	sp := n.tracer.StartRoot("op:acquire-excl")
	e, ok := n.store.Lookup(obj)
	if ok && e.Home {
		n.counters.LocalHits++
		sp.SetAttr("local", "home")
		n.invalidateSharers(obj, 0)
		n.recordNow(sp.Ctx().Trace, RecAcquireExclusive, obj, 0, e, e.Obj.Bytes(), nil)
		n.opFinish(sp, nil)
		f.Resolve(e.Obj, nil)
		return f
	}
	op := n.newOp(obj, RecAcquireExclusive, sp)
	op.m = memproto.Msg{Op: memproto.OpAcquire, Perm: memproto.PermExclusive}
	op.got = f
	n.acquire(op, e)
	return f
}

// acquire joins op to the fetch of its object in flight, or starts one.
// An exclusive acquire first drops cached, the node's own copy (nil if
// none): a shared copy is not enough, so it refetches with exclusive
// permission and the home demotes every other sharer. The fetch lands
// in the copy it replaces when no one can read that copy any more: no
// lease on the object is outstanding, and the copy was never handed out
// without one. Then the request also offers that copy at its version,
// and a home still at that version grants without resending it.
func (n *Node) acquire(op *accessOp, cached *store.Entry) {
	obj, excl := op.obj, op.m.Perm == memproto.PermExclusive
	var region []byte
	var version uint64
	if excl {
		if cached != nil && cached.Recyclable && n.leases[obj] == 0 {
			region, version = cached.Obj.Bytes(), cached.Version
		}
		n.store.Invalidate(obj)
		n.ungrant(obj)
	}
	if f, pending := n.fetches[obj]; pending {
		// An exclusive acquire shares an exclusive grant, with a lease of
		// its own. Behind a shared fetch it only waits: finishFetch runs
		// its own fetch when that one ends.
		op.sp.SetAttr("coalesced", "true")
		f.waiters = append(f.waiters, op)
		if excl && f.req.m.Perm == memproto.PermExclusive {
			f.leases++
		}
		return
	}
	f := popFree(&n.fetchFree)
	if f == nil {
		f = &fetchState{}
		f.req.n, f.req.fetch = n, f
		f.req.resolveFn, f.req.respFn = f.req.resolve, f.req.rawResp
		f.stallFn = f.stall
	}
	f.req.obj, f.req.tc, f.req.attempt, f.req.m = obj, op.tc, 1, op.m
	f.waiters = append(f.waiters, op)
	if excl {
		f.leases = 1
		f.re.Into(region)
		f.held, f.req.m.Version = region, version
	}
	n.fetches[obj] = f
	n.counters.RemoteAcquires++
	f.req.begin()
}

// grantFragment ingests a grant (first fragment arrives as the request
// response; the rest arrive as unsolicited OpObjectPush frames). A
// data-less grant completes the fetch with the copy its request
// offered, in place.
func (n *Node) grantFragment(obj oid.ID, m *memproto.Msg) {
	f, ok := n.fetches[obj]
	if !ok {
		return
	}
	upgrade := m.Op == memproto.OpGrant && m.TotalLen == 0
	if upgrade && (f.held == nil || m.Version != f.req.m.Version) {
		return // a dropped attempt's answer to an offer since withdrawn
	}
	if f.epoch == 0 {
		f.epoch, f.version = m.Offset, m.Version // every fragment of a grant carries its epoch
	}
	if f.dropStale() {
		return
	}
	if m.Perm > f.perm {
		f.perm = m.Perm // the grant response names the permission
	}
	raw := f.held
	if !upgrade {
		f.withdraw()
		m.Op = memproto.OpObjectPush
		done, err := f.re.Add(m)
		if err != nil {
			n.finishFetch(obj, nil, err)
			return
		}
		if !done {
			f.watchdog = n.armStall(f.watchdog, f.stallFn)
			return
		}
		raw = f.re.Bytes()
		n.countRegion(f.re.Reused())
	}
	o, err := object.FromBytes(obj, raw)
	if err != nil {
		n.finishFetch(obj, nil, err)
		return
	}
	if err := n.store.Put(o, f.version, false); err != nil {
		n.finishFetch(obj, nil, err)
		return
	}
	if f.perm == memproto.PermNone {
		f.perm = memproto.PermShared
	}
	for held := range n.twins { // a replaced grant, or one whose copy the store evicted
		if held == obj || !n.store.Contains(held) {
			n.ungrant(held)
		}
	}
	n.granted[obj] = f.perm
	if f.perm == memproto.PermExclusive {
		var b []byte
		if k := len(n.scratch); k > 0 && cap(n.scratch[k-1]) >= len(raw) {
			b, n.scratch = n.scratch[k-1][:0], n.scratch[:k-1]
		}
		n.twins[obj] = twin{version: f.version, b: append(b, raw...)}
	}
	if f.leases > 0 {
		n.leases[obj] += f.leases
		if e, ok := n.store.Peek(obj); ok && f.leases == len(f.waiters) {
			e.Recyclable = true // every waiter holds a lease
		}
	}
	n.finishFetch(obj, o, nil)
}

// ungrant forgets the node's grant on obj, and puts the grant's twin,
// if any, back on the scratch list.
func (n *Node) ungrant(obj oid.ID) {
	delete(n.granted, obj)
	if t, ok := n.twins[obj]; ok {
		delete(n.twins, obj)
		n.keepScratch(t.b)
	}
}

// keepScratch puts a region no one reads any more on the scratch list,
// which keeps at most maxScratch.
func (n *Node) keepScratch(b []byte) {
	if len(n.scratch) < maxScratch {
		n.scratch = append(n.scratch, b)
	}
}

// countRegion tallies where a completed transfer landed.
func (n *Node) countRegion(reused bool) {
	if reused {
		n.counters.RegionsReused++
	} else {
		n.counters.RegionsAllocated++
	}
}

// finishFetch ends obj's fetch with its outcome. The fetch is out of the
// map before any waiter runs, so no continuation can reach it, and it
// is recycled after them (a waiter that starts a new fetch gets a
// different pooled struct). An exclusive acquire behind a shared fetch
// is not served by it: it runs its own fetch now, as the same op.
func (n *Node) finishFetch(obj oid.ID, o *object.Object, err error) {
	f, ok := n.fetches[obj]
	if !ok {
		return
	}
	delete(n.fetches, obj)
	if f.watchdog != nil {
		f.watchdog.Stop()
	}
	for _, w := range f.waiters {
		if w.m.Perm > f.req.m.Perm {
			n.acquire(w, nil)
		} else {
			w.finish(nil, o, f.version, err)
		}
	}
	n.putFetch(f)
}

// ReadAt reads [off, off+length) of obj from wherever it lives,
// without caching the object (a bus-style load, §3.2).
func (n *Node) ReadAt(obj oid.ID, off uint64, length int) *future.Future[[]byte] {
	f := new(future.Future[[]byte])
	n.readAt(obj, off, length, f)
	return f
}

// ReadAtCB is ReadAt with a callback in place of the future. Only
// bench/harness.go calls it; it goes when bench moves to ReadAt.
func (n *Node) ReadAtCB(obj oid.ID, off uint64, length int, cb func([]byte, error)) {
	n.readAt(obj, off, length, future.Func[[]byte](cb))
}

func (n *Node) readAt(obj oid.ID, off uint64, length int, to future.Sink[[]byte]) {
	sp := n.tracer.StartRoot("op:read")
	if e, ok := n.store.Lookup(obj); ok {
		n.counters.LocalHits++
		sp.SetAttr("local", "hit")
		e.Recyclable = false // b aliases the copy
		b, err := e.Obj.ReadAt(off, length)
		n.recordNow(sp.Ctx().Trace, RecRead, obj, off, e, b, err)
		n.opFinish(sp, err)
		to.Resolve(b, err)
		return
	}
	n.counters.RemoteReads++
	op := n.newOp(obj, RecRead, sp)
	op.m = memproto.Msg{Op: memproto.OpReadReq, Offset: off, Length: uint32(length)}
	op.read = to
	op.begin()
}

// WriteAt writes data at off in obj at its home; the home invalidates
// cached copies and bumps the version.
func (n *Node) WriteAt(obj oid.ID, off uint64, data []byte) *future.Future[struct{}] {
	f := new(future.Future[struct{}])
	sp := n.tracer.StartRoot("op:write")
	if e, ok := n.store.Lookup(obj); ok && e.Home {
		n.counters.LocalHits++
		sp.SetAttr("local", "home")
		err := e.Obj.WriteAt(off, data)
		if err == nil {
			n.store.BumpVersion(obj)
			n.recordNow(sp.Ctx().Trace, RecPublish, obj, 0, e, e.Obj.Bytes(), nil)
			n.invalidateSharers(obj, 0)
		}
		n.recordNow(sp.Ctx().Trace, RecWrite, obj, off, e, data, err)
		n.opFinish(sp, err)
		f.Resolve(struct{}{}, err)
		return f
	}
	n.counters.RemoteWrites++
	op := n.newOp(obj, RecWrite, sp)
	op.m = memproto.Msg{Op: memproto.OpWriteReq, Offset: off, Data: data}
	op.done = f
	op.begin()
	return f
}

// accessOp is the pooled requester-side record of one operation in
// flight. A public op — a read, write, release or acquire that missed
// locally — has a name, a root span and exactly one of the sinks read,
// done and got, and ends in finish. Reads, writes, releases and each
// fetch's own request (fetchState.req, which has no name and no sink)
// run the one resolve→request→stale-retry loop below (a release
// streams its copy and is not retried) with every callback pre-bound
// at allocation, so a warm remote access allocates nothing beyond the
// response copy the caller keeps; an acquire waits on a fetch instead.
// At most one bound continuation is outstanding at a time, and a
// public op is recycled only when it finishes.
type accessOp struct {
	n       *Node
	obj     oid.ID
	kind    RecordKind
	invoked backend.Time // set only while observers are installed
	attempt int
	tc      trace.Ctx
	sp      *trace.Span
	m       memproto.Msg             // request (Data borrows the caller's bytes); an acquire's names its Perm
	release *store.Entry             // the copy a release pushes home, in place of m
	fetch   *fetchState              // the fetch this op is the request of
	rm      memproto.Msg             // response decode scratch
	read    future.Sink[[]byte]      // a Future, or ReadAtCB's callback
	done    *future.Future[struct{}] // a write's or a release's
	got     *future.Future[*object.Object]

	resolveFn func(discovery.Result, error)
	respFn    func(*wire.Header, []byte, error)
}

// newOp draws a pooled op for the public operation kind on obj, rooted
// at sp (nil when unsampled), binding a fresh op's method-value
// callbacks exactly once — binding on every op would itself allocate.
func (n *Node) newOp(obj oid.ID, kind RecordKind, sp *trace.Span) *accessOp {
	op := popFree(&n.accessFree)
	if op == nil {
		op = &accessOp{n: n}
		op.resolveFn, op.respFn = op.resolve, op.rawResp
	}
	op.obj, op.kind, op.sp, op.tc, op.attempt = obj, kind, sp, sp.Ctx(), 1
	if n.observers != nil {
		op.invoked = n.clock.Now()
	}
	return op
}

// reset clears op's per-operation state, keeping its node, its fetch
// and its bound callbacks.
func (op *accessOp) reset() {
	*op = accessOp{n: op.n, fetch: op.fetch, resolveFn: op.resolveFn, respFn: op.respFn}
}

// begin starts (or restarts, on stale-location retry) the op's
// resolve→request chain for the current attempt.
func (op *accessOp) begin() {
	op.n.resolver.ResolveCtx(op.obj, op.tc, op.resolveFn)
}

// resolve is the pre-bound resolver continuation: address the holder
// and issue the access request.
func (op *accessOp) resolve(r discovery.Result, err error) {
	n := op.n
	if op.fetch != nil && n.fetches[op.obj] != op.fetch {
		return // the fetch completed or was superseded while resolving
	}
	if err != nil {
		op.fail(fmt.Errorf("%w: %v", ErrNotFound, err))
		return
	}
	h := wire.Header{Type: wire.MsgMem, Object: op.obj}
	op.tc.Inject(&h)
	if r.RouteOnObject {
		h.Flags |= wire.FlagRouteOnObject
	} else {
		h.Dst = r.Station
	}
	if op.release == nil {
		n.ep.RequestV(h, n.prefix(&op.m), op.m.Data, 0, op.respFn)
		return
	}
	// Every fragment goes straight from the released bytes into its frame
	// (TileLink's ReleaseData): all but the last are unsolicited pushes;
	// the last is a request so we learn the outcome.
	raw, v := op.release.Obj.Bytes(), op.release.Version
	for off := 0; ; {
		var m memproto.Msg
		m, off = memproto.NextFragment(raw, v, n.maxFragData(), off)
		m.Op = memproto.OpRelease
		switch {
		case off >= len(raw):
			n.ep.RequestV(h, n.prefix(&m), m.Data, 0, op.respFn)
			return
		case r.RouteOnObject:
			n.ep.SendV(h, n.prefix(&m), m.Data)
		default:
			n.ep.SendReliableV(h, n.prefix(&m), m.Data, nil)
		}
	}
}

// rawResp is the pre-bound response continuation: success (a fetch's
// grant goes to grantFragment), authoritative denial, or stale-location
// retry.
func (op *accessOp) rawResp(_ *wire.Header, payload []byte, err error) {
	n := op.n
	if op.fetch != nil && n.fetches[op.obj] != op.fetch {
		return
	}
	rm := &op.rm
	if err == nil {
		if uerr := rm.Unmarshal(payload); uerr != nil {
			err = uerr
		}
	}
	switch {
	case err == nil && rm.Status == memproto.StatusOK:
		switch {
		case op.fetch != nil:
			n.grantFragment(op.obj, rm)
			return
		case op.read != nil:
			// rm.Data is a view into the frame buffer, which is
			// recycled after dispatch; the caller keeps the bytes, so
			// copy — the one allocation a warm remote read pays.
			data := make([]byte, len(rm.Data))
			copy(data, rm.Data)
			n.saw(op.obj, rm.Version)
			op.finish(data, nil, rm.Version, nil)
			return
		default:
			// A write or a release was applied at the home, which
			// invalidated every sharer but this one. A released copy we
			// still hold is the home's newest version: clean again and
			// labeled so, its exclusive grant demoted to shared; an
			// answer outrun by a later release's keeps the newer label.
			// Any other copy is stale, and so is a grant older than the
			// answer. A release ends one lease.
			if e, ok := n.store.Peek(op.obj); ok && e == op.release {
				e.Version = max(e.Version, rm.Version)
				if n.granted[op.obj] == memproto.PermExclusive {
					n.granted[op.obj] = memproto.PermShared
				}
			} else {
				n.store.Invalidate(op.obj)
				n.ungrant(op.obj)
				n.saw(op.obj, rm.Version)
			}
			if op.release != nil {
				n.endLease(op.obj)
			}
		}
		op.finish(nil, nil, rm.Version, nil)
	case op.release != nil: // reported as it is, not retried
		if err == nil {
			err = rm.Status.Err()
		}
		op.finish(nil, nil, 0, err)
	case err == nil && rm.Status == memproto.StatusDenied:
		op.fail(rm.Status.Err())
	case op.attempt >= maxAccessAttempts:
		if err == nil {
			err = rm.Status.Err()
		}
		op.fail(fmt.Errorf("%w: %v", ErrMaxRetries, err))
	default:
		n.counters.StaleRetries++
		n.resolver.Invalidate(op.obj)
		op.attempt++
		op.begin()
	}
}

// fail ends op with err; a fetch's request fails the whole fetch.
func (op *accessOp) fail(err error) {
	if op.fetch != nil {
		op.n.finishFetch(op.obj, nil, err)
		return
	}
	op.finish(nil, nil, 0, err)
}

// finish ends a public op that read or published version v: observers
// get its record, it is recycled and its span ended, then the caller's
// sink resolves — recycle-before-resolve so a continuation that
// immediately issues another operation reuses this op's storage.
func (op *accessOp) finish(b []byte, o *object.Object, v uint64, err error) {
	n, sp := op.n, op.sp
	if n.observers != nil {
		switch {
		case o != nil:
			b = o.Bytes()
		case op.release != nil:
			b = op.release.Obj.Bytes()
		case op.kind == RecWrite:
			b = op.m.Data
		}
		n.record(Record{Obj: op.obj, Kind: op.kind, Off: op.m.Offset, Version: v, Bytes: b, Invoke: op.invoked, Trace: op.tc.Trace, Err: err})
	}
	read, done, got := op.read, op.done, op.got
	op.reset()
	n.accessFree = append(n.accessFree, op)
	n.opFinish(sp, err)
	switch {
	case read != nil:
		read.Resolve(b, err)
	case got != nil:
		got.Resolve(o, err)
	default:
		done.Resolve(struct{}{}, err)
	}
}

// Release ends the node's hold on its cached copy of obj. A copy still
// byte-equal to the twin its exclusive grant kept, at the twin's
// version, is clean: the release completes here, sends nothing, and
// demotes the grant to shared, as a clean line downgrades silently in
// MESI. The home publishes nothing and invalidates no one; the station
// has been in its sharer set since the grant, so the copy stays one the
// home can invalidate, and a write the home took meanwhile stands.
// Any other copy goes home (OpRelease), which applies it and bumps the
// version. Its bytes and version are read together when the release is
// transmitted: before Release returns, unless the home must first be
// located (a cold destination cache), and a caller that mutates the
// copy in that gap releases the mutated bytes. They go in fragments,
// each copied from the object's region into the frame every
// retransmission resends, so once they are out the copy is the
// caller's again.
func (n *Node) Release(obj oid.ID) *future.Future[struct{}] {
	f := new(future.Future[struct{}])
	sp := n.tracer.StartRoot("op:release")
	e, ok := n.store.Lookup(obj)
	if !ok || e.Home {
		var err error
		if ok {
			sp.SetAttr("local", "home") // already authoritative
		} else {
			err = fmt.Errorf("%w: %s", store.ErrNotFound, obj.Short())
		}
		n.recordNow(sp.Ctx().Trace, RecRelease, obj, 0, e, nil, err)
		n.opFinish(sp, err)
		f.Resolve(struct{}{}, err)
		return f
	}
	n.counters.Releases++
	if t, ok := n.twins[obj]; ok {
		clean := t.version == e.Version && bytes.Equal(t.b, e.Obj.Bytes())
		delete(n.twins, obj)
		n.keepScratch(t.b)
		if clean {
			sp.SetAttr("local", "clean")
			n.granted[obj] = memproto.PermShared
			n.endLease(obj)
			n.recordNow(sp.Ctx().Trace, RecRelease, obj, 0, e, e.Obj.Bytes(), nil)
			n.opFinish(sp, nil)
			f.Resolve(struct{}{}, nil)
			return f
		}
	}
	if n.leases[obj] == 0 {
		e.Recyclable = false // read for sending by a caller with no lease
	}
	op := n.newOp(obj, RecRelease, sp)
	op.release = e
	op.done = f
	op.begin()
	return f
}

// endLease ends one of the exclusive leases the node holds on obj.
func (n *Node) endLease(obj oid.ID) {
	if n.leases[obj]--; n.leases[obj] <= 0 {
		delete(n.leases, obj)
	}
}

// invalidateSharers sends OpInvalidate to every directory sharer
// except skip. A sharer leaves the set only when its InvalidateAck
// arrives: removing it on send would let a lost invalidate (past the
// transport's retry budget) leave a stale copy the directory no
// longer covers. Keeping unacked sharers means the directory may
// over-approximate but never under-approximates — the next write
// re-invalidates whoever is left.
func (n *Node) invalidateSharers(obj oid.ID, skip wire.StationID) {
	// Safe inside ForEach: an ack arrives, and removes its sharer, only
	// after this returns.
	n.directory.ForEach(obj, func(st wire.StationID, epoch uint64) {
		if st != skip {
			n.classicInvalidate(obj, st, epoch)
		}
	})
}

// classicInvalidate sends one sharer a reliable OpInvalidate and
// removes it from the directory when the ack arrives.
func (n *Node) classicInvalidate(obj oid.ID, st wire.StationID, epoch uint64) {
	n.counters.InvalidatesSent++
	n.ep.RequestV(wire.Header{Type: wire.MsgMem, Dst: st, Object: obj},
		n.prefix(&memproto.Msg{Op: memproto.OpInvalidate, Offset: epoch}), nil, 0,
		func(_ *wire.Header, payload []byte, err error) {
			var rm memproto.Msg
			if err == nil && rm.Unmarshal(payload) == nil {
				n.directory.Remove(obj, st, epoch)
			}
		})
}

// --- responder side ---

// HandleFrame consumes MsgMem frames; it returns true when consumed.
func (n *Node) HandleFrame(h *wire.Header, payload []byte) bool {
	if h.Type != wire.MsgMem {
		return false
	}
	var m memproto.Msg
	if err := m.Unmarshal(payload); err != nil {
		return true
	}
	switch m.Op {
	case memproto.OpReadReq:
		n.serveRead(h, &m)
	case memproto.OpWriteReq:
		n.serveWrite(h, &m)
	case memproto.OpAcquire:
		n.serveAcquire(h, &m)
	case memproto.OpObjectPush:
		n.grantFragment(h.Object, &m)
	case memproto.OpRelease:
		n.serveRelease(h, &m)
	case memproto.OpInvalidate:
		n.dropCopy(h, m.Offset)
		n.respond(h, &memproto.Msg{Op: memproto.OpInvalidateAck, Status: memproto.StatusOK})
	}
	return true
}

// dropCopy applies an invalidate of the given directory epoch at a
// sharer, whose caller then acks it.
func (n *Node) dropCopy(h *wire.Header, epoch uint64) {
	obj := h.Object
	n.counters.InvalidatesRecv++
	if n.observers != nil {
		e, _ := n.store.Peek(obj)
		n.recordNow(trace.FromHeader(h).Trace, RecInvalidateAck, obj, 0, e, nil, nil)
	}
	n.store.Invalidate(obj)
	n.ungrant(obj)
	if f, ok := n.fetches[obj]; ok {
		// A late fragment of a dropped grant that lands in the fresh
		// attempt is caught by the reassembler's version check and
		// retried by the caller.
		f.inv = max(f.inv, epoch)
		f.dropStale()
	}
}

// saw fences obj at version v, which one of this node's reads or
// writes returned: a copy or a grant in flight older than v is
// dropped, so the node's reads never go back in time.
func (n *Node) saw(obj oid.ID, v uint64) {
	if e, ok := n.store.Peek(obj); ok && !e.Home && e.Version < v {
		n.store.Invalidate(obj)
		n.ungrant(obj)
	}
	if f, ok := n.fetches[obj]; ok {
		f.floor = max(f.floor, v)
		f.dropStale()
	}
}

// silentMiss reports whether a miss should be dropped without a NACK:
// frames routed on object identity (StationAny) may flood to stations
// that do not hold the object; only the holder should speak. Frames
// explicitly addressed to us get a NACK — that is how stale
// destination caches are detected (Figure 3).
func (n *Node) silentMiss(h *wire.Header) bool {
	return h.Dst == wire.StationAny
}

func (n *Node) serveRead(h *wire.Header, m *memproto.Msg) {
	e, ok := n.store.Lookup(h.Object)
	if !ok {
		if n.silentMiss(h) {
			return
		}
		n.counters.NotFoundServed++
		n.respond(h, &memproto.Msg{Op: memproto.OpReadResp, Status: memproto.StatusNotFound})
		return
	}
	if !e.CanRead(h.Src) {
		n.counters.DeniedServed++
		n.respond(h, &memproto.Msg{Op: memproto.OpReadResp, Status: memproto.StatusDenied})
		return
	}
	b, err := e.Obj.ReadAt(m.Offset, int(m.Length))
	if err != nil {
		n.respond(h, &memproto.Msg{Op: memproto.OpReadResp, Status: memproto.StatusRange})
		return
	}
	n.counters.ReadsServed++
	n.respond(h, &memproto.Msg{
		Op: memproto.OpReadResp, Status: memproto.StatusOK,
		Offset: m.Offset, Version: e.Version, Data: b,
	})
}

func (n *Node) serveWrite(h *wire.Header, m *memproto.Msg) {
	e, ok := n.store.Lookup(h.Object)
	if !ok || !e.Home {
		if n.silentMiss(h) {
			return
		}
		n.counters.NotFoundServed++
		n.respond(h, &memproto.Msg{Op: memproto.OpWriteResp, Status: memproto.StatusNotFound})
		return
	}
	if err := e.Obj.WriteAt(m.Offset, m.Data); err != nil {
		n.respond(h, &memproto.Msg{Op: memproto.OpWriteResp, Status: memproto.StatusRange})
		return
	}
	v, _ := n.store.BumpVersion(h.Object)
	n.counters.WritesServed++
	n.recordNow(trace.FromHeader(h).Trace, RecPublish, h.Object, 0, e, e.Obj.Bytes(), nil)
	n.invalidateSharers(h.Object, h.Src)
	n.respond(h, &memproto.Msg{Op: memproto.OpWriteResp, Status: memproto.StatusOK, Version: v})
}

func (n *Node) serveAcquire(h *wire.Header, m *memproto.Msg) {
	e, ok := n.store.Lookup(h.Object)
	if !ok {
		if n.silentMiss(h) {
			return
		}
		n.counters.NotFoundServed++
		n.respond(h, &memproto.Msg{Op: memproto.OpGrant, Status: memproto.StatusNotFound})
		return
	}
	if !e.CanRead(h.Src) {
		n.counters.DeniedServed++
		n.respond(h, &memproto.Msg{Op: memproto.OpGrant, Status: memproto.StatusDenied})
		return
	}
	// Only the home grants copies: a grant creates retained state the
	// home's directory must cover, and a cached holder has no way to
	// register the new sharer there — a copy it granted could never be
	// invalidated. One-shot reads may be served from any copy; grants
	// may not. NACK so the requester rediscovers (discovery prefers
	// the authoritative holder while it is alive).
	if !e.Home {
		if n.silentMiss(h) {
			return
		}
		n.counters.NotHomeServed++
		n.respond(h, &memproto.Msg{Op: memproto.OpGrant, Status: memproto.StatusConflict})
		return
	}
	if m.Perm == memproto.PermExclusive {
		n.invalidateSharers(h.Object, h.Src)
	}
	_, holds := n.directory.Epoch(h.Object, h.Src)
	epoch := n.directory.Add(h.Object, h.Src)
	n.counters.GrantsServed++
	if holds && m.Version != 0 && m.Version == e.Version {
		// The requester offers the copy the directory says it holds, and
		// it is this version's: TileLink's Grant, without the bytes.
		n.counters.UpgradesServed++
		n.respond(h, &memproto.Msg{Op: memproto.OpGrant, Status: memproto.StatusOK, Perm: m.Perm, Offset: epoch, Version: e.Version})
		return
	}
	// The first fragment answers the request; the rest stream after it,
	// each copied from the object's region into its frame by the send.
	// Every fragment carries the registration's epoch in Offset.
	raw := e.Obj.Bytes()
	first, off := memproto.NextFragment(raw, e.Version, n.maxFragData(), 0)
	first.Op = memproto.OpGrant
	first.Status = memproto.StatusOK
	first.Perm = m.Perm
	first.Offset = epoch
	n.respond(h, &first)
	push := wire.Header{Type: wire.MsgMem, Dst: h.Src, Object: h.Object}
	trace.FromHeader(h).Inject(&push)
	for off < len(raw) {
		var f memproto.Msg
		f, off = memproto.NextFragment(raw, e.Version, n.maxFragData(), off)
		f.Offset = epoch
		n.ep.SendReliableV(push, n.prefix(&f), f.Data, nil)
	}
}

// releaseState is the pooled home-side state of one incoming release,
// in n.releases while fragments are outstanding.
type releaseState struct {
	n        *Node
	key      releaseKey
	re       memproto.Reassembler
	req      wire.Header // the sender's request, once it has arrived
	watchdog backend.Timer
	stallFn  func()
}

// stall is the pre-bound watchdog callback: a release that stopped
// arriving is dropped, region and all; its sender has timed out.
func (rs *releaseState) stall() {
	if rs.n.releases[rs.key] == rs {
		rs.n.putRelease(rs)
	}
}

// putRelease forgets an incoming release and recycles its state.
func (n *Node) putRelease(rs *releaseState) {
	delete(n.releases, rs.key)
	rs.re, rs.req = memproto.Reassembler{}, wire.Header{}
	if rs.watchdog != nil {
		rs.watchdog.Stop()
	}
	n.relStateFree = append(n.relStateFree, rs)
}

// maxScratch bounds the release regions a home keeps: one per release
// that may be arriving at once from a few closed-loop clients.
const maxScratch = 4

func (n *Node) serveRelease(h *wire.Header, m *memproto.Msg) {
	key := releaseKey{src: h.Src, obj: h.Object}
	rs := n.releases[key]
	// A second first fragment means the sender gave up on the release
	// whose bytes are held here and is releasing again.
	restart := rs != nil && m.FragOffset == 0 && rs.re.Prefix() > 0
	if rs == nil || restart {
		// This fragment starts a reassembly, and its TotalLen, off the
		// wire from any station for any object, sizes the region. Only a
		// home reassembles a release, and only one the size of its copy,
		// which a release replaces byte for byte. A refused request is
		// answered as the completion check below answers it.
		e, ok := n.store.Peek(h.Object)
		switch {
		case !ok || !e.Home:
			if m.FragOffset+uint64(len(m.Data)) == m.TotalLen && h.Flags&wire.FlagReliable != 0 {
				n.counters.NotFoundServed++
				n.respond(h, &memproto.Msg{Op: memproto.OpReleaseAck, Status: memproto.StatusNotFound})
			}
			return
		case m.TotalLen != uint64(e.Obj.Size()):
			if h.Flags&wire.FlagReliable != 0 {
				n.respond(h, &memproto.Msg{Op: memproto.OpReleaseAck, Status: memproto.StatusConflict})
			}
			return
		}
	}
	switch {
	case rs == nil:
		if rs = popFree(&n.relStateFree); rs == nil {
			rs = &releaseState{n: n}
			rs.stallFn = rs.stall
		}
		rs.key = key
		if k := len(n.scratch); k > 0 {
			rs.re.Into(n.scratch[k-1])
			n.scratch = n.scratch[:k-1]
		}
		n.releases[key] = rs
	case restart:
		// Mixing the two would install bytes neither of them sent.
		rs.re, rs.req = memproto.Reassembler{}, wire.Header{}
	}
	m.Op = memproto.OpObjectPush
	done, err := rs.re.Add(m)
	if err == nil && m.FragOffset+uint64(len(m.Data)) == m.TotalLen {
		// The last fragment is the sender's request. It is what the
		// answer quotes, even when a fragment retransmitted after it
		// is the one that completes the transfer.
		rs.req = *h
	}
	if err == nil && !done {
		rs.watchdog = n.armStall(rs.watchdog, rs.stallFn)
		return
	}
	raw, req, reused := rs.re.Bytes(), rs.req, rs.re.Reused()
	n.putRelease(rs)
	if err == nil && req.Seq != 0 {
		h = &req
	}
	if err != nil {
		if h.Flags&wire.FlagReliable != 0 {
			n.respond(h, &memproto.Msg{Op: memproto.OpReleaseAck, Status: memproto.StatusConflict})
		}
		return
	}
	e, ok := n.store.Lookup(h.Object)
	if !ok || !e.Home {
		n.counters.NotFoundServed++
		n.respond(h, &memproto.Msg{Op: memproto.OpReleaseAck, Status: memproto.StatusNotFound})
		return
	}
	n.countRegion(reused)
	if object.Validate(h.Object, raw) != nil {
		n.respond(h, &memproto.Msg{Op: memproto.OpReleaseAck, Status: memproto.StatusConflict})
		return
	}
	// A release is a whole-object write of the home copy's size:
	// committed in place, as WriteAt writes a home copy, the home's
	// *Object (and every pointer into it) stays the same object, and the
	// scratch the release landed in goes back on the list. It publishes
	// a new version and invalidates every other sharer.
	copy(e.Obj.Bytes(), raw)
	n.keepScratch(raw)
	version, _ := n.store.BumpVersion(h.Object)
	n.recordNow(trace.FromHeader(h).Trace, RecPublish, h.Object, 0, e, e.Obj.Bytes(), nil)
	n.invalidateSharers(h.Object, h.Src)
	n.respond(h, &memproto.Msg{Op: memproto.OpReleaseAck, Status: memproto.StatusOK, Version: version})
}

// popFree takes the most recently recycled *T off a free list; nil
// when the list is empty.
func popFree[T any](free *[]*T) *T {
	k := len(*free) - 1
	if k < 0 {
		return nil
	}
	v := (*free)[k]
	(*free)[k] = nil
	*free = (*free)[:k]
	return v
}
