// Package coherence implements object-granularity cache coherence over
// the memory protocol: each object's home node keeps a directory of
// copy holders; readers acquire shared copies, writers invalidate
// sharers, and every access carries a version so stale data is fenced.
//
// This is the "additional message types" layer of §3.2 (acquire,
// probe/invalidate, release — TileLink-style) and the infrastructure
// that absorbs the caching/invalidation logic applications otherwise
// reimplement (§3, §5).
//
// It also implements the stale-location retry the E2E discovery scheme
// needs (Figure 3): an access that reaches a node which no longer
// holds the object gets StatusNotFound, invalidates the requester's
// destination cache, re-resolves (broadcast), and retries.
package coherence

import (
	"fmt"
	"sort"

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
	ReadsServed     uint64
	WritesServed    uint64
	InvalidatesSent uint64
	InvalidatesRecv uint64
	StaleRetries    uint64
	NotFoundServed  uint64
	DeniedServed    uint64
	NotHomeServed   uint64
	Releases        uint64
}

// fetchState is the pooled per-fetch state of an acquire: reassembly,
// coalesced waiter callbacks, and the resolve→request→stale-retry
// machinery with its callbacks pre-bound at allocation so a recycled
// fetch re-arms without allocating closures. Instances cycle through
// Node.fetchFree; at most one bound callback (resolver or request) is
// outstanding at a time, and a fetch is only recycled from inside that
// callback or when none is outstanding, so a pooled struct is never
// mutated under an in-flight continuation.
type fetchState struct {
	n        *Node
	obj      oid.ID
	re       memproto.Reassembler
	cbs      []func(*object.Object, error)
	want     memproto.Perm // permission the caller asked for
	perm     memproto.Perm // highest permission the grant carried
	started  backend.Time  // when the fetch was initiated
	watchdog backend.Timer
	attempt  int
	tc       trace.Ctx
	rm       memproto.Msg // response decode scratch

	resolveFn func(discovery.Result, error)
	respFn    func(*wire.Header, []byte, error)
	stallFn   func()
}

// getFetch pops a recycled fetchState (or allocates one, binding its
// method-value callbacks exactly once — binding on every op would
// itself allocate).
func (n *Node) getFetch() *fetchState {
	if k := len(n.fetchFree) - 1; k >= 0 {
		f := n.fetchFree[k]
		n.fetchFree[k] = nil
		n.fetchFree = n.fetchFree[:k]
		return f
	}
	f := &fetchState{n: n}
	f.resolveFn = f.resolve
	f.respFn = f.rawResp
	f.stallFn = f.stall
	return f
}

// putFetch clears per-fetch state and returns f to the free list. The
// bound callbacks and the (stopped) watchdog timer are kept — they are
// the expensive parts reuse exists for.
func (n *Node) putFetch(f *fetchState) {
	for i := range f.cbs {
		f.cbs[i] = nil
	}
	f.cbs = f.cbs[:0]
	f.obj = oid.ID{}
	f.re = memproto.Reassembler{}
	f.want, f.perm = memproto.PermNone, memproto.PermNone
	f.attempt = 0
	f.tc = trace.Ctx{}
	f.rm = memproto.Msg{}
	n.fetchFree = append(n.fetchFree, f)
}

// fetchStallTimeout bounds the gap between fragments of a partially
// received grant. Every other fetch phase is bounded by request
// timeouts, but once the grant response has landed the remaining
// stream has no requester-side timer — and the home's fragment
// retransmissions give up after the transport retry budget, so a
// mid-stream fragment lost for good would otherwise hang the fetch
// (and every coalesced caller) forever. No progress for this long
// fails the fetch with a retryable error instead.
const fetchStallTimeout = 10 * backend.Millisecond

// newFetch registers an in-flight fetch. The stall watchdog is armed
// lazily, on the first partial reassembly progress (armStall), so
// single-fragment fetches never schedule one.
func (n *Node) newFetch(obj oid.ID, want memproto.Perm, cb func(*object.Object, error)) *fetchState {
	f := n.getFetch()
	f.obj = obj
	f.want = want
	f.started = n.clock.Now()
	f.cbs = append(f.cbs, cb)
	n.fetches[obj] = f
	return f
}

// armStall (re)arms the reassembly stall watchdog after progress.
// Reset consumes one event sequence number, exactly like the fresh
// AfterFunc it replaces, so timer reuse is bit-identical to the old
// arm-per-progress schedule.
func (n *Node) armStall(fs *fetchState) {
	fs.watchdog = backend.ResetTimer(n.clock, fs.watchdog, fetchStallTimeout, fs.stallFn)
}

// stall is the pre-bound watchdog callback.
func (f *fetchState) stall() {
	n := f.n
	if n.fetches[f.obj] != f { // completed, or a successor fetch
		return
	}
	n.finishFetch(f.obj, nil, fmt.Errorf("%w: object transfer stalled", ErrMaxRetries))
}

// begin starts (or restarts, on stale-location retry) the fetch's
// resolve→acquire chain for the current attempt.
func (f *fetchState) begin() {
	f.n.resolver.ResolveCtx(f.obj, f.tc, f.resolveFn)
}

// resolve is the pre-bound resolver continuation: address the holder
// and issue the acquire request.
func (f *fetchState) resolve(r discovery.Result, err error) {
	n := f.n
	if n.fetches[f.obj] != f {
		return // fetch completed or superseded while resolving
	}
	if err != nil {
		n.finishFetch(f.obj, nil, fmt.Errorf("%w: %v", ErrNotFound, err))
		return
	}
	h := wire.Header{Type: wire.MsgMem, Object: f.obj}
	f.tc.Inject(&h)
	if r.RouteOnObject {
		h.Flags |= wire.FlagRouteOnObject
		h.Dst = wire.StationID(0)
	} else {
		h.Dst = r.Station
	}
	m := memproto.Msg{Op: memproto.OpAcquire, Perm: f.want}
	n.ep.Request(h, n.marshal(&m), 0, f.respFn)
}

// rawResp is the pre-bound acquire-response continuation: grant,
// authoritative denial, or stale-location retry.
func (f *fetchState) rawResp(_ *wire.Header, payload []byte, err error) {
	n := f.n
	if n.fetches[f.obj] != f {
		return
	}
	rm := &f.rm
	if err == nil {
		if uerr := rm.Unmarshal(payload); uerr != nil {
			err = uerr
		}
	}
	if err == nil && rm.Status == memproto.StatusOK {
		n.grantFragment(f.obj, rm)
		return
	}
	// Access denial is authoritative — rediscovery will not change the
	// answer.
	if err == nil && rm.Status == memproto.StatusDenied {
		n.finishFetch(f.obj, nil, rm.Status.Err())
		return
	}
	// Stale location or transient failure: invalidate and retry
	// through rediscovery.
	if f.attempt >= maxAccessAttempts {
		if err == nil {
			err = rm.Status.Err()
		}
		n.finishFetch(f.obj, nil, fmt.Errorf("%w: %v", ErrMaxRetries, err))
		return
	}
	n.counters.StaleRetries++
	n.resolver.Invalidate(f.obj)
	f.attempt++
	f.begin()
}

// Node is one host's coherence engine.
type Node struct {
	ep       *transport.Endpoint
	store    *store.Store
	resolver discovery.Resolver
	clock    backend.Clock

	directory *Directory
	fetches   map[oid.ID]*fetchState
	releases  map[releaseKey]*memproto.Reassembler
	granted   map[oid.ID]memproto.Perm

	tracer   *trace.Recorder
	observer OpObserver
	counters Counters

	// Hot-path recycling: tx is the marshal scratch every send encodes
	// into (safe because every transmit path copies the payload into a
	// pooled frame buffer before returning), and the free lists hold
	// recycled per-operation state with pre-bound callbacks.
	tx         []byte
	accessFree []*accessOp
	fetchFree  []*fetchState

	// In-network computation (inc.go): home-side multicast
	// invalidation rounds and the installed-group cache. All nil/zero
	// until SetIncConfig enables the paths.
	incCfg       IncConfig
	incCounters  IncCounters
	incGroups    map[string]*incGroup
	incNextGroup uint64
	incOps       map[uint64]*incPending
	incNextOp    uint64
}

// OpObserver receives the name and outcome of every public operation
// ("acquire_shared", "acquire_exclusive", "read", "write", "release")
// exactly when its caller learns the result — the per-op completion
// hook the workload engine tallies goodput from. Local hits fire it
// too: an operation is an operation wherever it completes.
type OpObserver func(op string, err error)

type releaseKey struct {
	src wire.StationID
	obj oid.ID
}

// maxFragData sizes grant fragments to the endpoint's link MTU so
// whole-object transfers fit real datagrams. 0 (no link limit — the
// simulator) selects memproto.MaxFragData, which keeps seeded sim
// runs bit-identical to the pre-seam fragmenter.
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
		releases:  make(map[releaseKey]*memproto.Reassembler),
		granted:   make(map[oid.ID]memproto.Perm),
	}
}

// SetTracer attaches a span recorder: each public operation becomes a
// sampled trace root whose context rides the wire to every hop.
func (n *Node) SetTracer(r *trace.Recorder) { n.tracer = r }

// SetOpObserver installs the per-op completion hook (nil to disable),
// replacing any observer already present.
func (n *Node) SetOpObserver(fn OpObserver) { n.observer = fn }

// AddOpObserver chains fn after any installed observer, so independent
// listeners (workload counters, the invariant checker) compose instead
// of clobbering each other.
func (n *Node) AddOpObserver(fn OpObserver) {
	if fn == nil {
		return
	}
	if prev := n.observer; prev != nil {
		n.observer = func(op string, err error) {
			prev(op, err)
			fn(op, err)
		}
		return
	}
	n.observer = fn
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

// Sharers reports the directory's copy holders for a home object.
func (n *Node) Sharers(obj oid.ID) int {
	return n.directory.Sharers(obj)
}

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

// PendingFetch describes one in-flight object fetch.
type PendingFetch struct {
	Obj   oid.ID
	Since backend.Time
}

// PendingFetches lists in-flight fetches sorted by object ID — the
// checker's input for the no-fetch-outstanding-past-bound invariant.
func (n *Node) PendingFetches() []PendingFetch {
	if len(n.fetches) == 0 {
		return nil
	}
	out := make([]PendingFetch, 0, len(n.fetches))
	for id, f := range n.fetches {
		out = append(out, PendingFetch{Obj: id, Since: f.started})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj.Less(out[j].Obj) })
	return out
}

// Reset abandons all coherence state — directory, in-flight fetches
// and release reassembly — modeling a process crash. Pending fetch
// callbacks are dropped without being invoked (their continuations
// died with the process).
func (n *Node) Reset() {
	n.directory.Reset()
	n.fetches = make(map[oid.ID]*fetchState)
	n.releases = make(map[releaseKey]*memproto.Reassembler)
	n.granted = make(map[oid.ID]memproto.Perm)
	if n.incOps != nil {
		for _, p := range n.incOps {
			if p.timer != nil {
				p.timer.Stop()
			}
		}
		n.incOps = make(map[uint64]*incPending)
		n.incGroups = make(map[string]*incGroup)
	}
}

// marshal encodes m into the node's transmit scratch buffer. Every
// transmit path copies the payload into a pooled frame buffer before
// returning (dataplane.EncodeFrame), so the scratch is free again as
// soon as the send call returns — one growable buffer serves every
// message this node ever sends.
func (n *Node) marshal(m *memproto.Msg) []byte {
	b := m.Marshal(n.tx[:0])
	n.tx = b
	return b
}

// send transmits a memory-protocol message unreliably.
func (n *Node) send(dst wire.StationID, obj oid.ID, m *memproto.Msg) {
	n.ep.Send(wire.Header{Type: wire.MsgMem, Dst: dst, Object: obj}, n.marshal(m))
}

// sendReliable transmits a memory-protocol message with ack/retry.
func (n *Node) sendReliable(dst wire.StationID, obj oid.ID, tc trace.Ctx, m *memproto.Msg) {
	h := wire.Header{Type: wire.MsgMem, Dst: dst, Object: obj}
	tc.Inject(&h)
	n.ep.SendReliable(h, n.marshal(m), nil)
}

// request performs a reliable memory-protocol request and decodes the
// response. The decode closure allocates; pooled operations (accessOp,
// fetchState) use their pre-bound raw continuations instead.
func (n *Node) request(h wire.Header, m *memproto.Msg, cb func(*wire.Header, *memproto.Msg, error)) {
	n.ep.Request(h, n.marshal(m), 0, func(resp *wire.Header, payload []byte, err error) {
		if err != nil {
			cb(nil, nil, err)
			return
		}
		var rm memproto.Msg
		if err := rm.Unmarshal(payload); err != nil {
			cb(nil, nil, err)
			return
		}
		cb(resp, &rm, nil)
	})
}

// respond answers a memory-protocol request.
func (n *Node) respond(req *wire.Header, m *memproto.Msg) {
	n.ep.Respond(req, wire.Header{Type: wire.MsgMem, Object: req.Object}, n.marshal(m))
}

// --- access paths (requester side) ---

// opDone wraps an operation callback so the operation's root span ends
// (recording any error) and the op observer fires exactly when the
// caller learns the outcome — the root span's duration equals the
// externally observable latency. With no tracer and no observer it
// returns cb unchanged: the hot path costs nothing when nobody listens.
func opDone[T any](n *Node, name string, sp *trace.Span, cb func(T, error)) func(T, error) {
	if sp == nil && n.observer == nil {
		return cb
	}
	return func(v T, err error) {
		if sp != nil {
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
		}
		if n.observer != nil {
			n.observer(name, err)
		}
		cb(v, err)
	}
}

// opFinish ends a local-hit operation: span close plus observer fire,
// with no wrapper closure, so the cached fast path stays
// allocation-free even with an observer installed.
func (n *Node) opFinish(name string, sp *trace.Span, err error) {
	if sp != nil {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	if n.observer != nil {
		n.observer(name, err)
	}
}

// opDoneErr is opDone for error-only callbacks.
func opDoneErr(n *Node, name string, sp *trace.Span, cb func(error)) func(error) {
	if sp == nil && n.observer == nil {
		return cb
	}
	return func(err error) {
		if sp != nil {
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
		}
		if n.observer != nil {
			n.observer(name, err)
		}
		cb(err)
	}
}

// AcquireShared obtains a (possibly cached) copy of obj, fetching and
// caching it from its holder if needed. The returned future resolves
// as the simulation runs.
func (n *Node) AcquireShared(obj oid.ID) *future.Future[*object.Object] {
	f, complete := future.New[*object.Object]()
	n.AcquireSharedCB(obj, complete)
	return f
}

// AcquireSharedCB is the callback form of AcquireShared, for callers
// that chain continuations directly.
func (n *Node) AcquireSharedCB(obj oid.ID, cb func(*object.Object, error)) {
	sp := n.tracer.StartRoot("op:acquire-shared")
	cb = opDone(n, "acquire_shared", sp, cb)
	if o, ok := n.store.Lookup(obj); ok {
		n.counters.LocalHits++
		sp.SetAttr("local", "hit")
		cb(o, nil)
		return
	}
	if f, pending := n.fetches[obj]; pending {
		sp.SetAttr("coalesced", "true")
		f.cbs = append(f.cbs, cb)
		return
	}
	f := n.newFetch(obj, memproto.PermShared, cb)
	n.counters.RemoteAcquires++
	f.tc = sp.Ctx()
	f.attempt = 1
	f.begin()
}

// grantFragment ingests a grant (first fragment arrives as the request
// response; the rest arrive as unsolicited OpObjectPush frames).
func (n *Node) grantFragment(obj oid.ID, m *memproto.Msg) {
	f, ok := n.fetches[obj]
	if !ok {
		return
	}
	push := *m
	push.Op = memproto.OpObjectPush
	if m.Perm > f.perm {
		f.perm = m.Perm // the grant response names the permission
	}
	done, err := f.re.Add(&push)
	if err != nil {
		n.finishFetch(obj, nil, err)
		return
	}
	if !done {
		n.armStall(f)
		return
	}
	o, err := object.FromBytes(obj, f.re.Bytes())
	if err != nil {
		n.finishFetch(obj, nil, err)
		return
	}
	if err := n.store.Put(o, f.re.Version(), false); err != nil {
		n.finishFetch(obj, nil, err)
		return
	}
	if f.perm == memproto.PermNone {
		f.perm = memproto.PermShared
	}
	n.granted[obj] = f.perm
	n.finishFetch(obj, o, nil)
}

func (n *Node) finishFetch(obj oid.ID, o *object.Object, err error) {
	f, ok := n.fetches[obj]
	if !ok {
		return
	}
	delete(n.fetches, obj)
	if f.watchdog != nil {
		f.watchdog.Stop()
	}
	// f is out of the map, so no callback can reach it; it is recycled
	// after the waiters run (a waiter that starts a new fetch gets a
	// different pooled struct).
	for i := range f.cbs {
		f.cbs[i](o, err)
	}
	n.putFetch(f)
}

// AcquireExclusive obtains a copy with exclusive permission: the home
// invalidates every other cached copy before granting, so the caller
// may mutate its copy and push it back with Release. If this node is
// the home, sharers are invalidated and the authoritative copy is
// returned directly.
func (n *Node) AcquireExclusive(obj oid.ID) *future.Future[*object.Object] {
	f, complete := future.New[*object.Object]()
	n.AcquireExclusiveCB(obj, complete)
	return f
}

// AcquireExclusiveCB is the callback form of AcquireExclusive.
func (n *Node) AcquireExclusiveCB(obj oid.ID, cb func(*object.Object, error)) {
	sp := n.tracer.StartRoot("op:acquire-excl")
	cb = opDone(n, "acquire_exclusive", sp, cb)
	if e, ok := n.store.LookupEntry(obj); ok && e.Home {
		n.counters.LocalHits++
		sp.SetAttr("local", "home")
		n.invalidateSharers(obj, 0)
		cb(e.Obj, nil)
		return
	}
	// A shared copy is not enough — refetch with exclusive
	// permission so the home demotes other sharers.
	n.store.Invalidate(obj)
	delete(n.granted, obj)
	if f, pending := n.fetches[obj]; pending {
		// A shared fetch is in flight; piggyback (the grant permission
		// races, but single-threaded simulation keeps this ordered —
		// callers needing strict exclusivity serialize their acquires).
		sp.SetAttr("coalesced", "true")
		f.cbs = append(f.cbs, cb)
		return
	}
	f := n.newFetch(obj, memproto.PermExclusive, cb)
	n.counters.RemoteAcquires++
	f.tc = sp.Ctx()
	f.attempt = 1
	f.begin()
}

// ReadAt reads [off, off+length) of obj from wherever it lives,
// without caching the object (a bus-style load, §3.2).
func (n *Node) ReadAt(obj oid.ID, off uint64, length int) *future.Future[[]byte] {
	f, complete := future.New[[]byte]()
	n.ReadAtCB(obj, off, length, complete)
	return f
}

// ReadAtCB is the callback form of ReadAt.
func (n *Node) ReadAtCB(obj oid.ID, off uint64, length int, cb func([]byte, error)) {
	sp := n.tracer.StartRoot("op:read")
	if o, ok := n.store.Lookup(obj); ok {
		n.counters.LocalHits++
		sp.SetAttr("local", "hit")
		b, err := o.ReadAt(off, length)
		n.opFinish("read", sp, err)
		cb(b, err)
		return
	}
	n.counters.RemoteReads++
	op := n.getAccessOp()
	op.obj = obj
	op.name = "read"
	op.sp = sp
	op.tc = sp.Ctx()
	op.attempt = 1
	op.m = memproto.Msg{Op: memproto.OpReadReq, Offset: off, Length: uint32(length)}
	op.readCB = cb
	op.begin()
}

// WriteAt writes data at off in obj at its home; the home invalidates
// cached copies and bumps the version.
func (n *Node) WriteAt(obj oid.ID, off uint64, data []byte) *future.Future[struct{}] {
	f, complete := future.New[struct{}]()
	n.WriteAtCB(obj, off, data, func(err error) { complete(struct{}{}, err) })
	return f
}

// WriteAtCB is the callback form of WriteAt.
func (n *Node) WriteAtCB(obj oid.ID, off uint64, data []byte, cb func(error)) {
	sp := n.tracer.StartRoot("op:write")
	if e, ok := n.store.LookupEntry(obj); ok && e.Home {
		n.counters.LocalHits++
		sp.SetAttr("local", "home")
		if err := e.Obj.WriteAt(off, data); err != nil {
			n.opFinish("write", sp, err)
			cb(err)
			return
		}
		n.store.BumpVersion(obj)
		n.invalidateSharers(obj, 0)
		n.opFinish("write", sp, nil)
		cb(nil)
		return
	}
	n.counters.RemoteWrites++
	op := n.getAccessOp()
	op.obj = obj
	op.name = "write"
	op.sp = sp
	op.tc = sp.Ctx()
	op.attempt = 1
	op.m = memproto.Msg{Op: memproto.OpWriteReq, Offset: off, Data: data}
	op.writeCB = cb
	op.begin()
}

// accessOp is the pooled requester-side state of one bus-style read or
// write: the resolve→request→stale-retry loop with every callback
// pre-bound at allocation, so a warm remote access allocates nothing
// beyond the response copy the caller keeps. Exactly one of readCB and
// writeCB is set; like fetchState, at most one bound continuation is
// outstanding at a time and the op is only recycled from inside it.
type accessOp struct {
	n       *Node
	obj     oid.ID
	name    string // "read" or "write" (span + observer label)
	attempt int
	tc      trace.Ctx
	sp      *trace.Span
	m       memproto.Msg // request (Data borrows the caller's bytes)
	rm      memproto.Msg // response decode scratch
	readCB  func([]byte, error)
	writeCB func(error)

	resolveFn func(discovery.Result, error)
	respFn    func(*wire.Header, []byte, error)
}

// getAccessOp pops a recycled accessOp (or allocates one, binding its
// method-value callbacks exactly once).
func (n *Node) getAccessOp() *accessOp {
	if k := len(n.accessFree) - 1; k >= 0 {
		op := n.accessFree[k]
		n.accessFree[k] = nil
		n.accessFree = n.accessFree[:k]
		return op
	}
	op := &accessOp{n: n}
	op.resolveFn = op.resolve
	op.respFn = op.rawResp
	return op
}

// putAccessOp clears per-op state and returns op to the free list.
func (n *Node) putAccessOp(op *accessOp) {
	op.obj = oid.ID{}
	op.name = ""
	op.attempt = 0
	op.tc = trace.Ctx{}
	op.sp = nil
	op.m = memproto.Msg{}
	op.rm = memproto.Msg{}
	op.readCB = nil
	op.writeCB = nil
	n.accessFree = append(n.accessFree, op)
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
	if err != nil {
		op.finish(nil, fmt.Errorf("%w: %v", ErrNotFound, err))
		return
	}
	h := wire.Header{Type: wire.MsgMem, Object: op.obj}
	op.tc.Inject(&h)
	if r.RouteOnObject {
		h.Flags |= wire.FlagRouteOnObject
	} else {
		h.Dst = r.Station
	}
	n.ep.Request(h, n.marshal(&op.m), 0, op.respFn)
}

// rawResp is the pre-bound response continuation: success,
// authoritative denial, or stale-location retry.
func (op *accessOp) rawResp(_ *wire.Header, payload []byte, err error) {
	n := op.n
	rm := &op.rm
	if err == nil {
		if uerr := rm.Unmarshal(payload); uerr != nil {
			err = uerr
		}
	}
	switch {
	case err == nil && rm.Status == memproto.StatusOK:
		if op.readCB != nil {
			// rm.Data is a view into the frame buffer, which is
			// recycled after dispatch; the caller keeps the bytes, so
			// copy — the one allocation a warm remote read pays.
			data := make([]byte, len(rm.Data))
			copy(data, rm.Data)
			op.finish(data, nil)
			return
		}
		// Write applied at the home: our own cached copy (if any) is
		// now stale.
		n.store.Invalidate(op.obj)
		delete(n.granted, op.obj)
		op.finish(nil, nil)
	case err == nil && rm.Status == memproto.StatusDenied:
		op.finish(nil, rm.Status.Err())
	case op.attempt >= maxAccessAttempts:
		if err == nil {
			err = rm.Status.Err()
		}
		op.finish(nil, fmt.Errorf("%w: %v", ErrMaxRetries, err))
	default:
		n.counters.StaleRetries++
		n.resolver.Invalidate(op.obj)
		op.attempt++
		op.begin()
	}
}

// finish ends the op's span, fires the observer, recycles the op, and
// then invokes the caller's callback — recycle-before-callback so a
// continuation that immediately issues another operation reuses this
// op's storage.
func (op *accessOp) finish(b []byte, err error) {
	n, sp, name := op.n, op.sp, op.name
	readCB, writeCB := op.readCB, op.writeCB
	n.putAccessOp(op)
	n.opFinish(name, sp, err)
	if readCB != nil {
		readCB(b, err)
	} else {
		writeCB(err)
	}
}

// Release pushes a locally modified cached copy back to the object's
// home (OpRelease), which applies it and bumps the version.
func (n *Node) Release(obj oid.ID) *future.Future[struct{}] {
	f, complete := future.New[struct{}]()
	n.ReleaseCB(obj, func(err error) { complete(struct{}{}, err) })
	return f
}

// ReleaseCB is the callback form of Release.
func (n *Node) ReleaseCB(obj oid.ID, cb func(error)) {
	sp := n.tracer.StartRoot("op:release")
	cb = opDoneErr(n, "release", sp, cb)
	e, err := n.store.GetEntry(obj)
	if err != nil {
		cb(err)
		return
	}
	if e.Home {
		sp.SetAttr("local", "home")
		cb(nil) // already authoritative
		return
	}
	n.counters.Releases++
	raw := e.Obj.CloneBytes()
	frags := memproto.Fragment(raw, e.Version, n.maxFragData())
	tc := sp.Ctx()
	n.resolver.ResolveCtx(obj, tc, func(r discovery.Result, err error) {
		if err != nil {
			cb(fmt.Errorf("%w: %v", ErrNotFound, err))
			return
		}
		h := wire.Header{Type: wire.MsgMem, Object: obj}
		tc.Inject(&h)
		if r.RouteOnObject {
			h.Flags |= wire.FlagRouteOnObject
		} else {
			h.Dst = r.Station
		}
		// All fragments but the last are unsolicited pushes; the last
		// is a request so we learn the outcome.
		for i := 0; i < len(frags)-1; i++ {
			fm := frags[i]
			fm.Op = memproto.OpRelease
			if r.RouteOnObject {
				n.ep.Send(h, n.marshal(&fm))
			} else {
				n.ep.SendReliable(h, n.marshal(&fm), nil)
			}
		}
		last := frags[len(frags)-1]
		last.Op = memproto.OpRelease
		n.request(h, &last, func(_ *wire.Header, rm *memproto.Msg, err error) {
			if err != nil {
				cb(err)
				return
			}
			if rm.Status == memproto.StatusOK && n.granted[obj] == memproto.PermExclusive {
				// The pushed bytes are now the home's newest version;
				// our retained copy is clean again, so the exclusive
				// grant demotes to shared.
				n.granted[obj] = memproto.PermShared
			}
			cb(rm.Status.Err())
		})
	})
}

// InvalidateSharers drops every remote cached copy of a home object —
// for callers that mutate home objects directly (e.g. code invoked at
// the object's home) rather than through WriteAt.
func (n *Node) InvalidateSharers(obj oid.ID) {
	n.invalidateSharers(obj, 0)
}

// invalidateSharers sends OpInvalidate to every directory sharer
// except skip. A sharer leaves the set only when its InvalidateAck
// arrives: removing it on send would let a lost invalidate (past the
// transport's retry budget) leave a stale copy the directory no
// longer covers. Keeping unacked sharers means the directory may
// over-approximate but never under-approximates — the next write
// re-invalidates whoever is left.
func (n *Node) invalidateSharers(obj oid.ID, skip wire.StationID) {
	var members []wire.StationID
	var epochs []uint64
	n.directory.ForEach(obj, func(st wire.StationID, epoch uint64) {
		if st == skip {
			return
		}
		members = append(members, st)
		epochs = append(epochs, epoch)
	})
	// In-network multicast: one group invalidate replaces the
	// per-sharer fan-out when there is a fan-out to replace.
	if n.incCfg.Installer != nil &&
		len(members) > 1 && len(members) <= incMaxGroup {
		sortMembers(members, epochs)
		n.mcastInvalidate(obj, members, epochs)
		return
	}
	if n.incCfg.Purge {
		// No invalidate may traverse the caching switch (zero or one
		// sharer, or an oversized set handled classically below) — the
		// explicit purge keeps the in-switch cache coherent anyway.
		n.sendPurge(obj)
	}
	for i, st := range members {
		n.classicInvalidate(obj, st, epochs[i])
	}
}

// classicInvalidate is the original per-sharer reliable invalidate;
// also the fallback for multicast members whose ack never arrived.
func (n *Node) classicInvalidate(obj oid.ID, st wire.StationID, epoch uint64) {
	n.counters.InvalidatesSent++
	n.request(wire.Header{Type: wire.MsgMem, Dst: st, Object: obj},
		&memproto.Msg{Op: memproto.OpInvalidate},
		func(_ *wire.Header, _ *memproto.Msg, err error) {
			if err == nil {
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
		n.counters.InvalidatesRecv++
		n.store.Invalidate(h.Object)
		delete(n.granted, h.Object)
		if f, ok := n.fetches[h.Object]; ok && f.re.Started() {
			// The invalidate outran straggler fragments of an
			// in-flight grant (only possible when a lost fragment's
			// retransmission is still pending — fresh frames can't
			// overtake on FIFO links). Whatever has been reassembled
			// is stale as of this invalidate: completing it would
			// install a copy the home no longer tracks. Drop the
			// partial transfer and re-acquire; a late old-version
			// fragment landing in the fresh reassembler is caught by
			// its version check and retried by the caller.
			f.re = memproto.Reassembler{}
			f.perm = memproto.PermNone
			if f.watchdog != nil {
				f.watchdog.Stop()
			}
			f.tc = trace.Ctx{}
			f.attempt = 1
			f.begin()
		}
		n.respond(h, &memproto.Msg{Op: memproto.OpInvalidateAck, Status: memproto.StatusOK})
	}
	return true
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
	e, ok := n.store.LookupEntry(h.Object)
	if !ok {
		if n.silentMiss(h) {
			return
		}
		n.counters.NotFoundServed++
		n.respond(h, &memproto.Msg{Op: memproto.OpReadResp, Status: memproto.StatusNotFound})
		return
	}
	if !e.CanRead(uint64(h.Src)) {
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
	e, ok := n.store.LookupEntry(h.Object)
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
	n.invalidateSharers(h.Object, h.Src)
	n.respond(h, &memproto.Msg{Op: memproto.OpWriteResp, Status: memproto.StatusOK, Version: v})
}

func (n *Node) serveAcquire(h *wire.Header, m *memproto.Msg) {
	e, ok := n.store.LookupEntry(h.Object)
	if !ok {
		if n.silentMiss(h) {
			return
		}
		n.counters.NotFoundServed++
		n.respond(h, &memproto.Msg{Op: memproto.OpGrant, Status: memproto.StatusNotFound})
		return
	}
	if !e.CanRead(uint64(h.Src)) {
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
	n.directory.Add(h.Object, h.Src)
	n.counters.GrantsServed++
	raw := e.Obj.CloneBytes()
	frags := memproto.Fragment(raw, e.Version, n.maxFragData())
	// First fragment answers the request; the rest stream after it.
	first := frags[0]
	first.Op = memproto.OpGrant
	first.Status = memproto.StatusOK
	first.Perm = m.Perm
	n.respond(h, &first)
	for i := range frags[1:] {
		f := frags[1+i]
		n.sendReliable(h.Src, h.Object, trace.FromHeader(h), &f)
	}
}

func (n *Node) serveRelease(h *wire.Header, m *memproto.Msg) {
	key := releaseKey{src: h.Src, obj: h.Object}
	re, ok := n.releases[key]
	if !ok {
		re = &memproto.Reassembler{}
		n.releases[key] = re
	}
	done, err := re.Add(&memproto.Msg{
		Op: memproto.OpObjectPush, Version: m.Version,
		FragOffset: m.FragOffset, TotalLen: m.TotalLen, Data: m.Data,
	})
	if err != nil {
		delete(n.releases, key)
		if h.Flags&wire.FlagReliable != 0 {
			n.respond(h, &memproto.Msg{Op: memproto.OpReleaseAck, Status: memproto.StatusConflict})
		}
		return
	}
	if !done {
		return
	}
	delete(n.releases, key)
	e, ok := n.store.LookupEntry(h.Object)
	if !ok || !e.Home {
		n.counters.NotFoundServed++
		n.respond(h, &memproto.Msg{Op: memproto.OpReleaseAck, Status: memproto.StatusNotFound})
		return
	}
	o, oerr := object.FromBytes(h.Object, re.Bytes())
	if oerr != nil {
		n.respond(h, &memproto.Msg{Op: memproto.OpReleaseAck, Status: memproto.StatusConflict})
		return
	}
	n.store.Put(o, e.Version+1, true)
	n.invalidateSharers(h.Object, h.Src)
	n.respond(h, &memproto.Msg{Op: memproto.OpReleaseAck, Status: memproto.StatusOK, Version: e.Version + 1})
}
