package check

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/fault"
	"repro/internal/inc"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/p4sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scenario names one reproducible workload the checker can watch and
// the explorer can perturb. It is data: a cell of the configuration
// space, a population, a script and an expectation, all run by the one
// Build/Drive below — so the same script under another cell is another
// scenario (batch is load's mix under Fabric{BatchDelivery, HostRxCost}).
type Scenario struct {
	Name string
	// Cell is the cluster configuration under test; its zero value is
	// the base (SchemeE2E, three nodes). Build fills in the seed, the
	// tracing and a 300µs discovery timeout where the cell leaves them
	// zero.
	Cell core.Config
	// Pop is the object population, created in order into Run.Objects.
	Pop []Pop
	// Warm is setup that needs traffic — replication, cache-warming
	// reads — and must leave the cluster drained. It runs before the
	// checker attaches and before the explorer's injector is installed.
	Warm func(*Run) error
	// Script starts the measured phase. It may drain the cluster itself
	// between phases; an error it returns fails a nominal run only (the
	// explorer judges perturbed runs by the invariants: under
	// adversarial schedules liveness is not guaranteed, safety is).
	Script func(*Run) error
	// Expect is what a nominal run must show for the cell to have been
	// exercised at all (a punt, a coalesced batch); perturbed runs
	// ignore it like any Script error.
	Expect func(*Run) error
}

// Pop is N objects of Size bytes homed at node Home.
type Pop struct{ Home, N, Size int }

// Run is a built scenario instance ready to drive: the cluster is
// constructed and its setup traffic (object creation, replication,
// warm-up) has already quiesced, so every frame the explorer's
// injector sees belongs to the measured phase.
type Run struct {
	Cluster *core.Cluster
	Checker *Checker
	// Objects is the population, in Pop order.
	Objects []*object.Object
	sc      Scenario
}

// Build constructs a fresh instance at the given seed; traced turns on
// full span sampling (SampleEvery 1) for violation replays.
func (sc Scenario) Build(seed int64, traced bool) (*Run, error) {
	cfg := sc.Cell
	if cfg.Seed == 0 {
		cfg.Seed = seed
	}
	if traced && cfg.Trace == (trace.Config{}) {
		cfg.Trace = trace.Config{SampleEvery: 1}
	}
	if cfg.Discovery.Timeout == 0 {
		cfg.Discovery.Timeout = 300 * netsim.Microsecond
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Scheme == core.SchemeControllerHA {
		// Announcements commit through a consensus leader.
		if _, ok := c.AwaitControlLeader(50 * netsim.Millisecond); !ok {
			return nil, fmt.Errorf("check: no control-plane leader elected")
		}
	}
	r := &Run{Cluster: c, sc: sc}
	for _, p := range sc.Pop {
		objs, err := workload.Populate([]*core.Node{c.Node(p.Home)}, p.N, p.Size)
		if err != nil {
			return nil, err
		}
		r.Objects = append(r.Objects, objs...)
	}
	for i, o := range r.Objects {
		fill(o, byte(0x11*(i+1)))
	}
	c.Run() // drain announcements
	if sc.Warm != nil {
		if err := sc.Warm(r); err != nil {
			return nil, err
		}
	}
	r.Checker = New(c)
	return r, nil
}

// Drive runs the measured phase to completion and finishes with a
// quiescent CheckNow scan.
func (r *Run) Drive() error {
	err := r.sc.Script(r)
	r.Cluster.Run()
	r.Checker.CheckNow()
	if err == nil && r.sc.Expect != nil {
		err = r.sc.Expect(r)
	}
	return err
}

// fill writes a deterministic byte pattern over the object's heap
// (header and FOT untouched) so content digests are sensitive to any
// torn or misplaced fragment.
func fill(o *object.Object, salt byte) {
	base := o.HeapBase()
	b := make([]byte, o.Size()-int(base))
	for i := range b {
		b[i] = byte(i*7) ^ salt
	}
	o.WriteAt(base, b)
}

// Scenarios returns the built-in scenario set, in the order the
// checker experiment (E10) sweeps them.
func Scenarios() []Scenario {
	// batch runs load's mix with its own write label and a tight access
	// gap, so arrivals queue behind the home's receive context and
	// doorbell batches grow.
	batchMix := loadMix
	batchMix.label, batchMix.gap = "batch-scenario-w", 40*netsim.Microsecond
	return []Scenario{
		// The fragment-reassembly stress; see fig2Script.
		{Name: "fig2", Pop: []Pop{{1, fig2Smalls, 2048}, {1, 1, 160_000}}, Script: fig2Script},
		// The recovery path under the checker: a replicated object's
		// home crashes mid-workload and a replica is promoted, while a
		// reader retries through the outage.
		{Name: "faults", Pop: []Pop{{1, 1, 4096}}, Warm: replicateAndWarm, Script: faultsScript},
		// A small E9-style mixed workload: two clients read, write and
		// acquire a shared working set homed on the third node — the
		// directory-coverage and single-exclusive invariants get their
		// exercise here.
		{Name: "load", Pop: []Pop{{2, 4, 2048}}, Script: loadMix.script},
		// The sharded-home scheme under a filter-table budget far too
		// small for its shard rules (room for ~9 ternary rules; the
		// 4-node, 64-shard map needs several times that even after
		// sibling-prefix aggregation): with LRU eviction and punt
		// fallback, operations whose shard rule has been displaced
		// detour through the shard manager. The coherence invariants
		// must survive the punt path exactly as they do the resident
		// fast path — a punt is a re-route, never a re-home.
		{Name: "evict",
			Cell: core.Config{
				Scheme:   core.SchemeSharded,
				NumNodes: 4,
				Tables:   p4sim.TablesConfig{FilterMemory: 1024, Eviction: p4sim.EvictLRU, ObjectMiss: p4sim.MissPunt},
			},
			Pop:    []Pop{{0, evictPerNode, 4096}, {1, evictPerNode, 4096}, {2, evictPerNode, 4096}, {3, evictPerNode, 4096}},
			Script: evictMix.script,
			Expect: func(r *Run) error {
				if r.Cluster.ShardPunts() == 0 {
					return fmt.Errorf("check: no shard-manager punt under the filter budget")
				}
				return nil
			}},
		// The replicated control plane through its canonical fault; see
		// raftScript.
		{Name: "raft",
			Cell: core.Config{Scheme: core.SchemeControllerHA, Discovery: discovery.Config{Replicas: 3}},
			Pop:  []Pop{{1, 3, 2048}}, Script: raftScript},
		// The ack-aggregation adversary; see incDeadSharerScript.
		{Name: "inc-agg-dead-sharer",
			Cell: core.Config{
				Scheme:   core.SchemeController,
				NumNodes: incSharers + 1,
				Inc:      inc.Config{Mcast: true, AckAgg: true},
			},
			Pop: []Pop{{0, 1, 2048}}, Warm: shareWithAll,
			Script: incDeadSharerScript, Expect: incHonestAcks},
		// load's mix under batched frame delivery and a modeled host
		// receive cost, so concurrent requests land inside multi-frame
		// doorbell batches and the explorer's perturbations hit frames
		// that travel *inside* a batch: a dropped frame must leave its
		// batchmates intact, a duplicate must not double-deliver its
		// neighbours, and a delayed frame must migrate to a later
		// doorbell without reordering its own link. A nominal run must
		// actually coalesce — otherwise the explorer is perturbing the
		// per-frame path under a different name.
		{Name: "batch",
			Cell: core.Config{Fabric: netsim.FabricConfig{BatchDelivery: true, HostRxCost: 5 * netsim.Microsecond}},
			Pop:  []Pop{{2, 4, 2048}}, Script: batchMix.script,
			Expect: func(r *Run) error {
				if fired, frames := r.Cluster.Net.BatchStats(); frames <= fired {
					return fmt.Errorf("check: no coalescing under batched delivery (%d doorbells, %d frames)", fired, frames)
				}
				return nil
			}},
	}
}

// ScenarioByName finds a built-in scenario.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opAcquire
)

// mix is the one mixed read/write/acquire loop: nodes 0..clients-1
// each issue accesses operations against the population, one at a
// time, gap after the previous one's outcome; a failed operation is
// retried with doubling back-off before the client moves on.
type mix struct {
	clients, accesses int
	// ops is the rotation: a client's access i runs ops[i%len(ops)].
	ops []opKind
	// pick chooses which of the n objects client w's access i targets.
	pick func(w, i, n int) int
	// Reads cover 16 bytes at readOff; client w writes label at
	// writeOff+16·w, so concurrent writers never overlap.
	readOff, writeOff uint64
	label             string
	gap, retryDelay   netsim.Duration
	attempts          int
}

var (
	loadMix = mix{
		clients: 2, accesses: 30, ops: []opKind{opRead, opWrite, opAcquire},
		pick:    func(w, i, n int) int { return (i + w) % n },
		readOff: 4, writeOff: 1600, label: "load-scenario-w",
		gap: 100 * netsim.Microsecond, retryDelay: 200 * netsim.Microsecond, attempts: 6,
	}
	evictMix = mix{
		clients: 2, accesses: 12, ops: []opKind{opAcquire, opWrite, opRead},
		// Stride past the client's own homes so every access crosses
		// the fabric and needs its shard rule resident (or a punt).
		pick:    func(w, i, n int) int { return (w*evictPerNode + evictPerNode + i) % n },
		readOff: 8, writeOff: 1800, label: "evict-scenario-w",
		gap: 120 * netsim.Microsecond, retryDelay: 250 * netsim.Microsecond, attempts: 6,
	}
)

// evictPerNode is how many objects each of evict's four nodes homes.
const evictPerNode = 3

func (m mix) script(r *Run) error {
	sim := r.Cluster.Sim
	for w := 0; w < m.clients; w++ {
		node := r.Cluster.Node(w)
		workload.Loop(sim, m.accesses, m.gap, func(i int, next func()) {
			obj := r.Objects[m.pick(w, i, len(r.Objects))].ID()
			workload.Retry(sim, m.retryDelay, m.attempts, func(done func(error)) {
				switch m.ops[i%len(m.ops)] {
				case opRead:
					node.Coherence.ReadAt(obj, m.readOff, 16).Then(func(_ []byte, err error) { done(err) })
				case opWrite:
					node.Coherence.WriteAt(obj, m.writeOff+16*uint64(w), []byte(m.label)).Then(func(_ struct{}, err error) { done(err) })
				case opAcquire:
					node.Coherence.AcquireShared(obj).Then(func(_ *object.Object, err error) { done(err) })
				}
			}, func(int, error) { next() })
		})
	}
	return nil
}

// fig2Smalls is how many small objects precede the big one in fig2's
// population.
const fig2Smalls = 3

// fig2Script: a reader interleaves small coherent reads with the
// shared acquisition of a 160KB object — five MaxFragData fragments
// per grant — while the home publishes a new version mid-transfer.
// Duplicate or version-skewed fragments (the two reassembler bugs PR 5
// fixed) corrupt the cached copy in ways only the content-digest
// invariant sees.
func fig2Script(r *Run) error {
	const (
		maxAttempts = 6
		retryGap    = 300 * netsim.Microsecond
		writeAt     = 2000 * netsim.Microsecond // just before a lost fragment's retransmission (2037.5 µs at drop:8), which moves with the transport's timer
		finalReadAt = 12 * netsim.Millisecond
	)
	c := r.Cluster
	home, reader := c.Node(1), c.Node(0)
	smalls, big := r.Objects[:fig2Smalls], r.Objects[fig2Smalls].ID()
	var driveErr error
	// Small coherent reads first: they populate the explorer's frame
	// index with request/response pairs and warm the reader's
	// resolver. The last step is the big acquire; its failure after
	// maxAttempts is tolerated.
	workload.Loop(c.Sim, fig2Smalls+1, 0, func(i int, next func()) {
		if i == fig2Smalls {
			workload.Retry(c.Sim, retryGap, maxAttempts, func(done func(error)) {
				reader.Coherence.AcquireShared(big).Then(func(_ *object.Object, err error) { done(err) })
			}, func(int, error) {})
			return
		}
		reader.Coherence.ReadAt(smalls[i].ID(), 1600, 32).Then(func(_ []byte, err error) {
			if err != nil {
				driveErr = fmt.Errorf("small read %d: %w", i, err)
			}
			next()
		})
	})
	// The home rewrites the big object's tail mid-transfer and bumps
	// the version — the seed for version-skew.
	c.Sim.Schedule(writeAt, func() {
		patch := make([]byte, 40_000)
		for i := range patch {
			patch[i] = byte(i*13) ^ 0x5A
		}
		home.Coherence.WriteAt(big, 100_000, patch)
	})
	// A late small read confirms the fabric still serves after the
	// transfer settles.
	c.Sim.Schedule(finalReadAt, func() {
		reader.Coherence.ReadAt(smalls[0].ID(), 0, 16)
	})
	c.Run()
	return driveErr
}

// replicateAndWarm replicates the (single) object to node 2 and warms
// node 0's resolver with one read.
func replicateAndWarm(r *Run) error {
	c, obj := r.Cluster, r.Objects[0].ID()
	repOK, warm := false, false
	c.ReplicateObject(obj, c.Node(2), func(err error) { repOK = err == nil })
	c.Run()
	if !repOK {
		return fmt.Errorf("check: replicating object failed")
	}
	c.Node(0).Coherence.ReadAt(obj, 8, 16).Then(func(_ []byte, err error) { warm = err == nil })
	c.Run()
	if !warm {
		return fmt.Errorf("check: warm read failed")
	}
	return nil
}

// faultsScript crashes the home at crashAt under a paced, retrying
// reader. The checker's Epoch is scheduled at the crash so the rebuilt
// home's version history is not misread as a monotonicity violation:
// the crash discards the authoritative copy and the promotion rebuilds
// it, and both legitimately rewind the object's observable history.
func faultsScript(r *Run) error {
	const crashAt = 3 * netsim.Millisecond
	fault.NewInjector(r.Cluster).Arm(fault.NewSchedule().CrashNode(crashAt, 1))
	r.Cluster.Sim.Schedule(crashAt, func() { r.Checker.Epoch() })
	return mix{
		clients: 1, accesses: 24, ops: []opKind{opRead},
		pick: func(_, _, _ int) int { return 0 }, readOff: 8,
		gap: 150 * netsim.Microsecond, retryDelay: 250 * netsim.Microsecond, attempts: 8,
	}.script(r)
}

// raftScript drives the replicated control plane through its canonical
// fault: the consensus leader is killed early — so the explorer's
// frame window covers the election — while hosts keep announcing fresh
// objects and re-locating stale ones, and the deposed replica later
// restarts and replays its log. The raft invariants (one leader per
// term, committed-never-lost, applied-prefix agreement) are scanned at
// quiescence alongside the coherence set.
func raftScript(r *Run) error {
	const (
		objSize   = 2048
		crashAt   = 100 * netsim.Microsecond
		restartAt = 2500 * netsim.Microsecond
		accesses  = 10
		interOp   = 200 * netsim.Microsecond
		catchUp   = 8 * netsim.Millisecond
	)
	c, setup := r.Cluster, r.Objects
	home, reader := c.Node(1), c.Node(0)
	fault.NewInjector(c).Arm(fault.NewSchedule().
		CrashLeader(crashAt).
		RestartController(restartAt, -1))
	// relocate re-reads obj through the control plane (the stale mark
	// forces a MsgLocate).
	relocate := func(obj *object.Object, cb func([]byte, error)) {
		reader.Resolver.Invalidate(obj.ID())
		reader.Coherence.ReadAt(obj.ID(), 8, 16).Then(cb)
	}
	var acked []*object.Object
	for i := 0; i < accesses; i++ {
		c.Sim.Schedule(netsim.Duration(i)*interOp, func() {
			if i%2 == 1 {
				relocate(setup[i%len(setup)], func([]byte, error) {})
				return
			}
			// Announce a fresh object: a proposal that must commit
			// through whatever leader exists (or emerges) — the client
			// follows redirects.
			o, err := object.New(c.NewID(), objSize, 0)
			if err != nil || home.Store.Put(o, 1, true) != nil {
				return
			}
			fill(o, byte(0x91+i))
			home.Discovery().AnnounceCB(o.ID(), func(err error) {
				if err == nil {
					acked = append(acked, o)
				}
			})
		})
	}
	c.Run()
	// Foreground work has drained; daemon heartbeats now walk the
	// restarted replica's log back to the leader's.
	c.Sim.RunFor(catchUp)
	var finalErr error
	relocate(setup[0], func(_ []byte, err error) { finalErr = err })
	c.Run()
	if finalErr != nil {
		return fmt.Errorf("check: post-heal locate failed: %w", finalErr)
	}
	// Every acknowledged announce committed; none may be lost.
	lead := c.LeaderController()
	if lead == nil {
		return fmt.Errorf("check: no control-plane leader after heal")
	}
	for _, o := range acked {
		if owner, ok := lead.Lookup(o.ID()); !ok || owner != home.Station {
			return fmt.Errorf("check: acknowledged announce of %s lost after failover", o.ID().Short())
		}
	}
	return nil
}

// incSharers is how many nodes share the inc-agg-dead-sharer object.
const incSharers = 4

// shareWithAll has every sharer acquire a shared copy of the object.
func shareWithAll(r *Run) error {
	warm := 0
	for s := 1; s <= incSharers; s++ {
		r.Cluster.Node(s).Coherence.AcquireShared(r.Objects[0].ID()).Then(func(_ *object.Object, err error) {
			if err == nil {
				warm++
			}
		})
	}
	r.Cluster.Run()
	if warm != incSharers {
		return fmt.Errorf("check: %d/%d sharers acquired", warm, incSharers)
	}
	return nil
}

// incDeadSharerScript is the ack-aggregation adversary: a sharer dies
// holding a shared copy, then the home multicasts an invalidation over
// the full (now stale) sharer set. The aggregating switch must flush
// only the acks it really received — if it ever fabricated the dead
// sharer's ack, the home would drop the directory entry for a copy it
// never confirmed dead, and a revived holder could serve stale bytes.
func incDeadSharerScript(r *Run) error {
	c, o := r.Cluster, r.Objects[0]
	home := c.Node(0)
	// The last sharer dies silently; the home's directory still names
	// it, so both multicast rounds cover it.
	c.CrashNode(incSharers)
	var writeErr error
	home.Coherence.WriteAt(o.ID(), o.HeapBase(), []byte("inc-dead-sharer")).Then(func(_ struct{}, err error) { writeErr = err })
	c.Run()
	// Round two: the survivors re-acquire (indexable memory traffic for
	// the explorer) and the home invalidates the same stale sharer set
	// again, reusing the group.
	for s := 1; s < incSharers; s++ {
		c.Node(s).Coherence.AcquireShared(o.ID())
	}
	c.Run()
	home.Coherence.WriteAt(o.ID(), o.HeapBase(), []byte("inc-round-two!"))
	c.Run()
	if writeErr != nil {
		return fmt.Errorf("check: invalidating write: %w", writeErr)
	}
	return nil
}

// incHonestAcks asserts the honest path end to end: switch flush by
// timeout, home-side fallback for the silent member, live members
// still coalesced.
func incHonestAcks(r *Run) error {
	ic := r.Cluster.Node(0).Coherence.IncCounters()
	if ic.McastInvSent != 2 {
		return fmt.Errorf("check: %d multicast invalidations, want 2", ic.McastInvSent)
	}
	if ic.McastTimeouts < 2 || ic.FallbackInvalidates < 2 {
		return fmt.Errorf("check: dead sharer's ack fabricated (timeouts=%d fallbacks=%d)",
			ic.McastTimeouts, ic.FallbackInvalidates)
	}
	var flushed, coalesced uint64
	for _, eng := range r.Cluster.IncEngines {
		flushed += eng.Counters().AggTimeouts
		coalesced += eng.Counters().AcksCoalesced
	}
	if flushed < 2 {
		return fmt.Errorf("check: aggregation flushed %d rounds by timeout, want 2", flushed)
	}
	if coalesced < 2*(incSharers-1) {
		return fmt.Errorf("check: only %d live acks coalesced, want %d", coalesced, 2*(incSharers-1))
	}
	return nil
}
