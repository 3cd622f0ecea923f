// Package check is the protocol invariant checker: a passive observer
// that watches a core.Cluster for violations of the global-address-
// space safety properties the paper's design depends on, and an
// explorer (explore.go) that perturbs frame schedules to flush out the
// protocol bugs that only fire under duplication, loss, and reorder.
//
// The checker evaluates two classes of invariant:
//
//   - per-op invariants, evaluated from the coherence op-observer hook
//     after every completed coherence operation: version monotonicity
//     at the home, no home content rewrite under an already-published
//     version, no cached copy labeled ahead of its home, byte-exact
//     agreement between a cached copy and some home-published version
//     of the object, and no fetch outstanding past fetchBound;
//   - quiescent invariants, evaluated by CheckNow once the simulator
//     has drained: at most one home per object, at most one exclusive
//     holder, directory coverage (every cached copy appears in the
//     home's sharer set — the directory may over-approximate, never
//     under-approximate), no in-flight fetches, and dataplane buffer
//     refcount balance against the checker's construction-time
//     baseline.
//
// Everything the checker reads goes through side-effect-free
// accessors (store.Peek, coherence.SharerSet/GrantedPerm/
// PendingFetches, dataplane.LiveBufs), so an enabled checker observes
// the run without perturbing LRU order, timers, or the seeded event
// schedule. Building a checker is what turns checking on: a cluster
// nobody called New on has nothing installed and runs bit-identically
// to an uncheckered build.
package check

import (
	"fmt"
	"hash/fnv"
	"sort"

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
	InvDirectoryCoverage = "directory-coverage"
	InvVersionMonotonic  = "version-monotonic"
	InvHomeRewrite       = "home-rewrite"
	InvCopyVersionAhead  = "copy-version-ahead"
	InvCopyDivergence    = "copy-divergence"
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

// Counters is the checker's telemetry block, registered under "check".
type Counters struct {
	Scans       uint64
	OpsObserved uint64
	Violations  uint64
}

const (
	// maxViolations caps recorded violations per run.
	maxViolations = 32
	// fetchBound is the longest an object fetch may stay outstanding
	// before the per-op scan flags it — comfortably past the coherence
	// stall watchdog.
	fetchBound = 20 * netsim.Millisecond
)

// Checker observes one cluster. Create with New; it is not safe for
// concurrent use (the simulator is single-threaded, so this never
// comes up in practice).
type Checker struct {
	c       *core.Cluster
	bufBase int64

	// maxVersion is the highest version ever observed at any home for
	// each object; homes must never regress below it.
	maxVersion map[oid.ID]uint64
	// digests records, per object, the FNV-64a content digest the home
	// published under each version. A cached copy must match SOME
	// published digest — matching only its own labeled version would
	// false-positive on releasers that legitimately retain a demoted
	// copy while the home is already a version ahead.
	digests map[oid.ID]map[uint64]uint64

	// raftCommitted is the checker's own durable record of every
	// committed control-plane log entry it has ever observed — the
	// ground truth for the committed-never-lost invariant.
	raftCommitted map[uint64]raftEntryRec

	seen       map[vioKey]bool
	violations []Violation
	counters   Counters
}

// New builds a checker for c: it chains a per-op scan onto every
// node's coherence op-observer, snapshots the live-buffer baseline,
// and records the initial home digests. It panics on a realnet
// cluster, whose schedules it could not replay.
func New(c *core.Cluster) *Checker {
	if c.Sim == nil {
		panic("check: the invariant checker is sim-only (it explores deterministic schedules)")
	}
	k := &Checker{
		c:             c,
		maxVersion:    make(map[oid.ID]uint64),
		digests:       make(map[oid.ID]map[uint64]uint64),
		raftCommitted: make(map[uint64]raftEntryRec),
		seen:          make(map[vioKey]bool),
	}
	k.bufBase = dataplane.LiveBufs()
	for _, n := range c.Nodes {
		n.Coherence.AddOpObserver(func(string, error) {
			k.counters.OpsObserved++
			k.scan(false)
		})
	}
	k.scan(false) // record initial home versions and digests
	return k
}

// CheckNow runs a full quiescent scan. Call it when the simulator has
// drained (or at a known-stable point); it additionally evaluates the
// invariants that only hold at quiescence.
func (k *Checker) CheckNow() {
	k.scan(true)
	k.ScanRaft()
}

// Epoch resets the version-history state (max versions and content
// digests) while keeping recorded violations. Scenarios call it when
// a fault legitimately rewinds history — e.g. a home crash followed by
// replica promotion republishes the object at a rebuilt version.
func (k *Checker) Epoch() {
	k.maxVersion = make(map[oid.ID]uint64)
	k.digests = make(map[oid.ID]map[uint64]uint64)
}

// Violations returns the recorded violations in detection order.
func (k *Checker) Violations() []Violation { return k.violations }

// Ok reports whether no invariant has been violated.
func (k *Checker) Ok() bool { return len(k.violations) == 0 }

// Counters returns the telemetry counters.
func (k *Checker) Counters() Counters { return k.counters }

func (k *Checker) report(at netsim.Time, invariant string, obj oid.ID, detail string) {
	key := vioKey{invariant, obj}
	if k.seen[key] {
		return
	}
	k.seen[key] = true
	k.counters.Violations++
	if len(k.violations) >= maxViolations {
		return
	}
	k.violations = append(k.violations, Violation{At: at, Invariant: invariant, Object: obj, Detail: detail})
}

func digestOf(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

type homeState struct {
	node    *core.Node
	version uint64
}

// scan walks every live node's store and coherence state. quiescent
// adds the drain-dependent invariants.
func (k *Checker) scan(quiescent bool) {
	k.counters.Scans++
	now := k.c.Sim.Now()

	// Pass 1: homes. Record versions and digests, check monotonicity
	// and rewrite.
	homes := make(map[oid.ID][]homeState)
	for _, n := range k.c.Nodes {
		if n.Down() {
			continue
		}
		for _, id := range n.Store.HomeList() {
			e, ok := n.Store.Peek(id)
			if !ok {
				continue
			}
			homes[id] = append(homes[id], homeState{n, e.Version})
			if prev, ok := k.maxVersion[id]; ok && e.Version < prev {
				k.report(now, InvVersionMonotonic, id,
					fmt.Sprintf("home station %d at version %d after version %d was published", n.Station, e.Version, prev))
			} else if !ok || e.Version > prev {
				k.maxVersion[id] = e.Version
			}
			d := digestOf(e.Obj.Bytes())
			vd := k.digests[id]
			if vd == nil {
				vd = make(map[uint64]uint64)
				k.digests[id] = vd
			}
			if prev, ok := vd[e.Version]; ok && prev != d {
				k.report(now, InvHomeRewrite, id,
					fmt.Sprintf("home station %d rewrote content under already-published version %d", n.Station, e.Version))
			}
			vd[e.Version] = d
		}
	}

	// Pass 2: cached copies.
	exclusive := make(map[oid.ID][]*core.Node)
	for _, n := range k.c.Nodes {
		if n.Down() {
			continue
		}
		for _, id := range n.Store.List() {
			e, ok := n.Store.Peek(id)
			if !ok || e.Home {
				continue
			}
			perm := n.Coherence.GrantedPerm(id)
			if perm == memproto.PermExclusive {
				exclusive[id] = append(exclusive[id], n)
			}
			hs := homes[id]
			if len(hs) != 1 {
				continue // single-home breach reported at quiescence
			}
			home := hs[0]
			if e.Version > home.version {
				k.report(now, InvCopyVersionAhead, id,
					fmt.Sprintf("station %d caches version %d but home station %d is at %d",
						n.Station, e.Version, home.node.Station, home.version))
			}
			if quiescent && !stationIn(home.node.Coherence.SharerSet(id), n.Station) {
				k.report(now, InvDirectoryCoverage, id,
					fmt.Sprintf("station %d holds a copy absent from home station %d's sharer set — a stale copy the home can no longer invalidate",
						n.Station, home.node.Station))
			}
			// Content check: a non-exclusive copy whose labeled version
			// the home has published must match some published digest.
			// Exclusive holders are mid-write and legitimately diverge.
			if perm != memproto.PermExclusive {
				vd := k.digests[id]
				if vd == nil {
					continue
				}
				if _, known := vd[e.Version]; !known {
					continue
				}
				d := digestOf(e.Obj.Bytes())
				match := false
				for _, hd := range vd {
					if hd == d {
						match = true
						break
					}
				}
				if !match {
					k.report(now, InvCopyDivergence, id,
						fmt.Sprintf("station %d's copy labeled version %d matches no version the home ever published — corrupt or torn transfer",
							n.Station, e.Version))
				}
			}
		}
	}

	// Fetch liveness.
	for _, n := range k.c.Nodes {
		if n.Down() {
			continue
		}
		for _, pf := range n.Coherence.PendingFetches() {
			if quiescent {
				k.report(now, InvFetchDrain, pf.Obj,
					fmt.Sprintf("station %d still has a fetch in flight at quiescence (started %v)", n.Station, pf.Since))
			} else if now.Sub(pf.Since) > fetchBound {
				k.report(now, InvFetchStuck, pf.Obj,
					fmt.Sprintf("station %d fetch outstanding for %v (bound %v)", n.Station, now.Sub(pf.Since), fetchBound))
			}
		}
	}

	if quiescent {
		ids := make([]oid.ID, 0, len(homes))
		for id := range homes {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
		for _, id := range ids {
			if hs := homes[id]; len(hs) > 1 {
				k.report(now, InvSingleHome, id,
					fmt.Sprintf("%d live nodes claim the authoritative copy", len(hs)))
			}
		}
		ids = ids[:0]
		for id := range exclusive {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
		for _, id := range ids {
			if ns := exclusive[id]; len(ns) > 1 {
				k.report(now, InvSingleExclusive, id,
					fmt.Sprintf("%d nodes hold exclusive permission simultaneously", len(ns)))
			}
		}
		if live := dataplane.LiveBufs(); live != k.bufBase {
			k.report(now, InvBufBalance, oid.ID{},
				fmt.Sprintf("%d frame buffers live at quiescence, baseline %d — a frame path leaked or double-released", live, k.bufBase))
		}
	}
}

func stationIn(set []wire.StationID, st wire.StationID) bool {
	for _, s := range set {
		if s == st {
			return true
		}
	}
	return false
}
