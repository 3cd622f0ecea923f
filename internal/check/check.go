// Package check is the protocol invariant checker: a passive observer
// that watches a core.Cluster for violations of the global-address-
// space safety properties the paper's design depends on, and an
// explorer (explore.go) that perturbs frame schedules to flush out the
// protocol bugs that only fire under duplication, loss, and reorder.
//
// The checker evaluates two classes of invariant:
//
//   - record invariants, on the coherence.Record a node delivers when an
//     operation completes, a home publishes a version or a sharer acks
//     an invalidate, at O(1) plus a digest of the bytes an acquire or a
//     publish touched: home versions never fall and their bytes never
//     change, no copy is read ahead of its home, an acquire's bytes are
//     what the home published under the grant's version, no acquire
//     takes past fetchBound, and no read or shared acquire returns a
//     version older than one its station had already seen (or had
//     dropped on an invalidate) when it was invoked;
//   - quiescent invariants, evaluated by CheckNow in one walk once the
//     simulator has drained: at most one home per object, at most one
//     exclusive holder, an exclusive grant wherever a caller was told it
//     holds one, directory coverage (every cached copy appears in the
//     home's sharer set — the directory may over-approximate, never
//     under-approximate), no in-flight fetches, dataplane buffer refcount
//     balance against the checker's construction-time baseline, and each
//     home's bytes against what it published.
//
// The walk reads only side-effect-free accessors (store.Peek,
// coherence.SharerSet/GrantedPerm/PendingFetches, dataplane.LiveBufs),
// so an enabled checker observes the run without perturbing LRU order,
// timers, or the seeded event schedule. Building a checker is what
// turns checking on: a cluster nobody called New on has no observer
// installed and runs bit-identically to an uncheckered build.
package check

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"maps"
	"slices"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/oid"
	"repro/internal/wire"
)

// Invariant names, as they appear in Violation.Invariant.
const (
	InvSingleHome        = "single-home"
	InvSingleExclusive   = "single-exclusive"
	InvToldExclusive     = "told-exclusive"
	InvDirectoryCoverage = "directory-coverage"
	InvVersionMonotonic  = "version-monotonic"
	InvHomeRewrite       = "home-rewrite"
	InvCopyVersionAhead  = "copy-version-ahead"
	InvCopyDivergence    = "copy-divergence"
	InvStaleRead         = "stale-read"
	InvFetchStuck        = "fetch-stuck"
	InvFetchDrain        = "fetch-drain"
	InvBufBalance        = "buf-balance"
)

// Violation is one invariant breach, deduplicated per (invariant,
// object) pair for the life of the checker.
type Violation struct {
	At        netsim.Time
	Invariant string
	Object    oid.ID
	Detail    string
	// Trace is the trace ID of the operation whose record revealed the
	// breach: 0 for a quiescent one, or when tracing did not sample it.
	Trace uint64
}

func (v Violation) String() string {
	obj := "-"
	if !v.Object.IsNil() {
		obj = v.Object.Short()
	}
	return fmt.Sprintf("[%v] %s obj=%s: %s", v.At, v.Invariant, obj, v.Detail)
}

type vioKey struct {
	invariant string
	object    oid.ID
}

// fetchBound is the longest an acquire may take from invoke to
// response — comfortably past the coherence stall watchdog.
const fetchBound = 20 * netsim.Millisecond

// copyKey names one station's view of one object.
type copyKey struct {
	st  wire.StationID
	obj oid.ID
}

func (a copyKey) compare(b copyKey) int { return cmp.Or(a.obj.Compare(b.obj), cmp.Compare(a.st, b.st)) }

// view is what a station's records say of its view of an object: no
// read invoked at or after since may return a version below floor, and
// excl says it holds an exclusive grant, so its copy's bytes are its own
// to change until it releases or is invalidated.
type view struct {
	floor uint64
	since netsim.Time
	excl  bool
}

// Checker observes one cluster. Create with New; it is not safe for
// concurrent use (the simulator is single-threaded, so this never
// comes up in practice).
type Checker struct {
	c       *core.Cluster
	now     func() netsim.Time
	bufBase int64

	// maxVersion is the highest version any home published for each
	// object; homes must never regress below it.
	maxVersion map[oid.ID]uint64
	// digests records, per object, the content digest the home published
	// under each version.
	digests map[oid.ID]map[uint64]uint64
	views   map[copyKey]view
	epochAt netsim.Time

	// raftCommitted is the checker's own durable record of every
	// committed control-plane log entry it has ever observed — the
	// ground truth for the committed-never-lost invariant.
	raftCommitted map[uint64]raftEntryRec

	seen       map[vioKey]bool
	violations []Violation
}

// New builds a checker for c: it installs an observer on every node's
// coherence engine, snapshots the live-buffer baseline, and records the
// homes' current versions and digests. It panics on a realnet cluster,
// whose schedules it could not replay.
func New(c *core.Cluster) *Checker {
	if c.Sim == nil {
		panic("check: the invariant checker is sim-only (it explores deterministic schedules)")
	}
	k := newChecker(c.Sim.Now)
	k.c, k.bufBase = c, dataplane.LiveBufs()
	for _, n := range c.Nodes {
		n.Coherence.AddObserver(k.observe)
	}
	k.walk(false)
	return k
}

// newChecker builds a checker that watches no cluster: the records
// handed to observe are all it sees.
func newChecker(now func() netsim.Time) *Checker {
	k := &Checker{now: now, raftCommitted: make(map[uint64]raftEntryRec), seen: make(map[vioKey]bool)}
	k.Epoch()
	return k
}

// CheckNow walks the cluster once for the invariants that only hold at
// quiescence. Call it when the simulator has drained.
func (k *Checker) CheckNow() {
	k.walk(true)
	k.ScanRaft()
}

// Epoch resets the version history — max versions, content digests and
// every station's read floor — while keeping recorded violations.
// Scenarios call it when a fault legitimately rewinds history — e.g. a
// home crash followed by replica promotion republishes the object at a
// rebuilt version.
func (k *Checker) Epoch() {
	k.maxVersion = make(map[oid.ID]uint64)
	k.digests = make(map[oid.ID]map[uint64]uint64)
	k.views = make(map[copyKey]view)
	k.epochAt = k.now()
}

// Violations returns the recorded violations in detection order.
func (k *Checker) Violations() []Violation { return k.violations }

// Ok reports whether no invariant has been violated.
func (k *Checker) Ok() bool { return len(k.violations) == 0 }

func (k *Checker) report(at netsim.Time, invariant string, obj oid.ID, tr uint64, detail string) {
	key := vioKey{invariant, obj}
	if k.seen[key] {
		return
	}
	k.seen[key] = true
	k.violations = append(k.violations, Violation{At: at, Invariant: invariant, Object: obj, Detail: detail, Trace: tr})
}

// digestSeed keys every digest of the process: digests are compared,
// never printed, so a fresh seed per process changes no output.
var digestSeed = maphash.MakeSeed()

func digestOf(b []byte) uint64 { return maphash.Bytes(digestSeed, b) }

// observe checks one record. Records of operations invoked before the
// last Epoch belong to the history it discarded.
func (k *Checker) observe(r coherence.Record) {
	if r.Kind == coherence.RecPublish {
		if r.Err == nil && r.Invoke >= k.epochAt {
			k.home(r.Response, r.Station, r.Obj, r.Version, r.Bytes, r.Trace)
		}
		return
	}
	key := copyKey{r.Station, r.Obj}
	w := k.views[key]
	if r.Err != nil || r.Invoke < k.epochAt {
		// Only the grant it took or ended counts: the history of an
		// operation invoked before the last Epoch is discarded, and a
		// failed exclusive acquire still gave up the copy it refetches.
		if r.Err == nil || r.Kind == coherence.RecAcquireExclusive {
			w.excl = r.Err == nil && exclAfter(r.Kind, w.excl)
			k.views[key] = w
		}
		return
	}
	top, published := k.maxVersion[r.Obj]
	switch r.Kind {
	case coherence.RecInvalidateAck:
		// The home published a newer version before it sent the
		// invalidate, so the dropped copy was stale: nothing this station
		// invokes from now on may read it again.
		if published && r.Version > 0 && r.Version < top {
			r.Version++
		}
	case coherence.RecRead, coherence.RecAcquireShared, coherence.RecAcquireExclusive:
		if published && r.Version > top {
			k.report(r.Response, InvCopyVersionAhead, r.Obj, r.Trace,
				fmt.Sprintf("station %d's %s returned version %d but the home has published only up to %d",
					r.Station, r.Kind, r.Version, top))
		}
		if r.Kind != coherence.RecAcquireExclusive && r.Invoke >= w.since && r.Version < w.floor {
			k.report(r.Response, InvStaleRead, r.Obj, r.Trace,
				fmt.Sprintf("station %d's %s invoked at %v returned version %d, older than version %d it had seen by %v",
					r.Station, r.Kind, r.Invoke, r.Version, w.floor, w.since))
		}
		if d := r.Response.Sub(r.Invoke); r.Kind != coherence.RecRead && d > fetchBound {
			k.report(r.Response, InvFetchStuck, r.Obj, r.Trace,
				fmt.Sprintf("station %d's %s took %v (bound %v)", r.Station, r.Kind, d, fetchBound))
		}
		// Unless the station already held it exclusively, an acquire's
		// copy is what the home published under the grant's version.
		if want, ok := k.digests[r.Obj][r.Version]; r.Kind != coherence.RecRead && !w.excl && ok && digestOf(r.Bytes) != want {
			k.report(r.Response, InvCopyDivergence, r.Obj, r.Trace,
				fmt.Sprintf("station %d's copy labeled version %d is not what the home published under that version — corrupt or torn transfer",
					r.Station, r.Version))
		}
	}
	w.excl = exclAfter(r.Kind, w.excl)
	if r.Version > w.floor {
		w.floor, w.since = r.Version, r.Response
	}
	k.views[key] = w
}

// exclAfter says whether a station holds an exclusive grant after a
// record of kind, given whether it held one before: an exclusive
// acquire takes one, and a write, a release or an invalidate ends it.
func exclAfter(kind coherence.RecordKind, excl bool) bool {
	return kind == coherence.RecAcquireExclusive || excl && (kind == coherence.RecRead || kind == coherence.RecAcquireShared)
}

// home folds a home's version of obj into the history: versions never
// fall, and a published version's bytes never change.
func (k *Checker) home(at netsim.Time, st wire.StationID, obj oid.ID, v uint64, b []byte, tr uint64) {
	if prev, ok := k.maxVersion[obj]; ok && v < prev {
		k.report(at, InvVersionMonotonic, obj, tr,
			fmt.Sprintf("home station %d at version %d after version %d was published", st, v, prev))
	} else {
		k.maxVersion[obj] = v
	}
	vd := k.digests[obj]
	if vd == nil {
		vd = make(map[uint64]uint64)
		k.digests[obj] = vd
	}
	d := digestOf(b)
	if prev, ok := vd[v]; ok && prev != d {
		k.report(at, InvHomeRewrite, obj, tr,
			fmt.Sprintf("home station %d rewrote content under already-published version %d", st, v))
	}
	vd[v] = d
}

// walk reads every live node's store once, folding each home copy into
// the version history; quiescent adds the invariants that hold only
// once the simulator has drained.
func (k *Checker) walk(quiescent bool) {
	now := k.now()
	homes := make(map[oid.ID][]*core.Node)
	for _, n := range k.c.Nodes {
		if n.Down() {
			continue
		}
		for _, id := range n.Store.HomeList() {
			if e, ok := n.Store.Peek(id); ok {
				homes[id] = append(homes[id], n)
				k.home(now, n.Station, id, e.Version, e.Obj.Bytes(), 0)
			}
		}
	}
	if !quiescent {
		return
	}
	exclusive := make(map[oid.ID]int)
	for _, n := range k.c.Nodes {
		if n.Down() {
			continue
		}
		for _, id := range n.Store.List() {
			if e, ok := n.Store.Peek(id); !ok || e.Home {
				continue
			}
			if n.Coherence.GrantedPerm(id) == memproto.PermExclusive {
				exclusive[id]++
			}
			if hs := homes[id]; len(hs) == 1 && !slices.Contains(hs[0].Coherence.SharerSet(id), n.Station) {
				k.report(now, InvDirectoryCoverage, id, 0,
					fmt.Sprintf("station %d holds a copy absent from home station %d's sharer set — a stale copy the home can no longer invalidate",
						n.Station, hs[0].Station))
			}
		}
		for _, id := range n.Coherence.PendingFetches() {
			k.report(now, InvFetchDrain, id, 0, fmt.Sprintf("station %d still has a fetch in flight at quiescence", n.Station))
		}
	}
	for _, id := range slices.SortedFunc(maps.Keys(homes), oid.ID.Compare) {
		if hs := homes[id]; len(hs) > 1 {
			k.report(now, InvSingleHome, id, 0, fmt.Sprintf("%d live nodes claim the authoritative copy", len(hs)))
		}
	}
	for _, id := range slices.SortedFunc(maps.Keys(exclusive), oid.ID.Compare) {
		if n := exclusive[id]; n > 1 {
			k.report(now, InvSingleExclusive, id, 0, fmt.Sprintf("%d nodes hold exclusive permission simultaneously", n))
		}
	}
	k.toldExclusive(now)
	if live := dataplane.LiveBufs(); live != k.bufBase {
		k.report(now, InvBufBalance, oid.ID{}, 0,
			fmt.Sprintf("%d frame buffers live at quiescence, baseline %d — a frame path leaked or double-released", live, k.bufBase))
	}
}

// toldExclusive checks that a station its records say was told it holds
// an object exclusively (and that has not since written, released or
// acked an invalidate) holds an exclusive grant on its live node. A
// home holds its object by authority, not by a grant. DESIGN §5 says
// why this, not "no other live copy", is what the protocol promises.
func (k *Checker) toldExclusive(now netsim.Time) {
	for _, key := range slices.SortedFunc(maps.Keys(k.views), copyKey.compare) {
		i := slices.IndexFunc(k.c.Nodes, func(n *core.Node) bool { return n.Station == key.st })
		if !k.views[key].excl || i < 0 || k.c.Nodes[i].Down() {
			continue
		}
		n := k.c.Nodes[i]
		if e, ok := n.Store.Peek(key.obj); ok && e.Home {
			continue
		}
		if p := n.Coherence.GrantedPerm(key.obj); p != memproto.PermExclusive {
			k.report(now, InvToldExclusive, key.obj, 0,
				fmt.Sprintf("station %d was told it holds the object exclusively, but its node holds %v", key.st, p))
		}
	}
}
