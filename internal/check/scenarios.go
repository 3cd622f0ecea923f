package check

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/p4sim"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Scenario names one reproducible workload the checker can watch and
// the explorer can perturb. It is data: a cell of the configuration
// space, a population, a script and an expectation, all run by the one
// Build/Drive below — so the generated script under another cell is
// another scenario (batch is load's under Fabric{BatchDelivery,
// HostRxCost}).
type Scenario struct {
	Name string
	// Cell is the cluster configuration under test; its zero value is
	// the base (SchemeE2E, three nodes). Build fills in the seed, the
	// tracing and a 300µs discovery timeout where the cell leaves them
	// zero.
	Cell core.Config
	// Pop is the object population, created in order into Run.Objects.
	Pop []Pop
	// Warm is setup that needs traffic — cache-warming acquires — and
	// must leave the cluster drained. It runs before the checker
	// attaches and before the explorer's injector is installed.
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
// constructed and its setup traffic (object creation, warm-up) has
// already quiesced, so every frame the explorer's injector sees belongs
// to the measured phase.
type Run struct {
	Cluster *core.Cluster
	Checker *Checker
	// Objects is the population, in Pop order.
	Objects []*object.Object
	sc      Scenario
	seed    int64
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
	if cfg.Discovery.Replicas > 1 {
		// Announcements commit through a consensus leader.
		if _, ok := c.AwaitControlLeader(50 * netsim.Millisecond); !ok {
			return nil, fmt.Errorf("check: no control-plane leader elected")
		}
	}
	r := &Run{Cluster: c, sc: sc, seed: seed}
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

// Scenarios returns what the checker experiment (E10) sweeps, in order:
// the named scenarios, then the cells generated from seed.
func Scenarios(seed int64) []Scenario {
	return append(named(), Cells(seed)...)
}

// named returns the scenarios with names of their own. load, evict,
// batch and faults run the generated script in a cell chosen to stress
// one path; fig2, raft and dead-sharer keep scripts of their own, each
// pinning one adversary.
func named() []Scenario {
	return []Scenario{
		// The fragment-reassembly stress; see fig2Script.
		{Name: "fig2", Pop: []Pop{{1, fig2Smalls, 2048}, {1, 1, 160_000}}, Script: fig2Script},
		// The recovery path under the checker: the object's home crashes
		// and a replica is promoted, while the clients' operations retry
		// through the outage; see faultsScript.
		{Name: "faults", Cell: core.Config{NumNodes: 4}, Pop: []Pop{{2, 1, 4096}}, Warm: replicate, Script: faultsScript},
		// Two clients race on a shared working set homed on the third
		// node.
		{Name: "load", Pop: []Pop{{2, 4, 2048}}, Script: generated},
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
			Pop:    []Pop{{0, 3, 4096}, {1, 3, 4096}, {2, 3, 4096}, {3, 3, 4096}},
			Script: generated,
			Expect: func(r *Run) error {
				if r.Cluster.ShardPunts() == 0 {
					return fmt.Errorf("check: no shard-manager punt under the filter budget")
				}
				return nil
			}},
		// The replicated control plane through its canonical fault; see
		// raftScript.
		{Name: "raft",
			Cell: core.Config{Scheme: core.SchemeController, Discovery: discovery.Config{Replicas: 3}},
			Pop:  []Pop{{1, 3, 2048}}, Script: raftScript},
		// A write that invalidates several sharers, one of them dead;
		// see deadSharerScript.
		{Name: "dead-sharer",
			Cell: core.Config{Scheme: core.SchemeController, NumNodes: sharers + 1},
			Pop:  []Pop{{0, 1, 2048}}, Warm: shareWithAll,
			Script: deadSharerScript, Expect: deadSharerCovered},
		// load's population under batched frame delivery and a modeled
		// host receive cost, so concurrent requests land inside
		// multi-frame doorbell batches and the explorer's perturbations
		// hit frames that travel *inside* a batch: a dropped frame must
		// leave its batchmates intact, a duplicate must not
		// double-deliver its neighbours, and a delayed frame must
		// migrate to a later doorbell without reordering its own link. A
		// nominal run must actually coalesce — otherwise the explorer is
		// perturbing the per-frame path under a different name.
		{Name: "batch",
			Cell: core.Config{Fabric: netsim.FabricConfig{BatchDelivery: true, HostRxCost: 5 * netsim.Microsecond}},
			Pop:  []Pop{{2, 4, 2048}}, Script: generated,
			Expect: func(r *Run) error {
				if fired, frames := r.Cluster.Net.BatchStats(); frames <= fired {
					return fmt.Errorf("check: no coalescing under batched delivery (%d doorbells, %d frames)", fired, frames)
				}
				return nil
			}},
	}
}

// ScenarioByName finds a named scenario, or the generated cell a name
// spells (see Cells).
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range named() {
		if sc.Name == name {
			return sc, true
		}
	}
	return parseCell(name)
}

// A generated cell is a legal core.Config drawn from the seed, named by
// its scheme and the flags it sets ("sharded+lru+punt+batch"). The name
// fully determines the cell, so a report's replay line replays it.
var (
	// cellSchemes are the schemes a cell draws from. A retired scheme
	// keeps its slot (retiredScheme), so every seed draws the other
	// cells it drew; NewCluster refuses a draw on the slot.
	cellSchemes = []core.Scheme{core.SchemeE2E, core.SchemeController, retiredScheme, core.SchemeSharded}
	// cellFlags are the feature axes, in the order a name lists them and
	// the seed draws them. A retired axis (nil set) still takes its draw,
	// so the other axes keep theirs, and a name with it is refused. A
	// cell that draws cache or ring is drawn without them. A cell that
	// draws mcast or agg is discarded, as a draw on retiredScheme is, so
	// every cell a seed still draws is one it drew, under the same name,
	// before they were retired; drawn without them, a cell NewCluster
	// refused (agg without mcast) would pass and a seed's later cells
	// would change. cache and ring keep their rule: changing it now
	// would re-draw cells.
	cellFlags = []cellFlag{
		{name: "r3", set: func(c *core.Config) { c.Discovery.Replicas = 3 }},
		// evict's filter budget: the sharded scheme's rules no longer fit.
		{name: "lru", set: func(c *core.Config) { c.Tables.Eviction, c.Tables.FilterMemory = p4sim.EvictLRU, 1024 }},
		{name: "punt", set: func(c *core.Config) { c.Tables.ObjectMiss = p4sim.MissPunt }},
		{name: "cache"},                // retired: the in-switch object cache
		{name: "mcast", discard: true}, // retired: multicast invalidation
		{name: "agg", discard: true},   // retired: switch ack aggregation
		{name: "batch", set: func(c *core.Config) { c.Fabric.BatchDelivery, c.Fabric.HostRxCost = true, 5*netsim.Microsecond }},
		{name: "ring"}, // retired: same-host rings
	}
)

// retiredScheme holds the slot of hybrid discovery, a controller fast
// path with an E2E fallback, which the sharded scheme replaced. It is
// no scheme NewCluster accepts.
const retiredScheme core.Scheme = -1

// cellFlag names one feature a cell turns on.
type cellFlag struct {
	name string
	set  func(*core.Config) // nil: retired
	// discard makes a draw of this retired flag discard the cell.
	discard bool
}

// genCells is how many cells E10 generates after the named scenarios.
const genCells = 6

// Cells draws genCells distinct cells from seed: a scheme, and each
// flag with probability 1/3. A draw is kept only if it draws no
// discarding flag and NewCluster accepts it.
func Cells(seed int64) []Scenario {
	rng := rand.New(rand.NewSource(seed))
	var out []Scenario
	for len(out) < genCells {
		name := cellSchemes[rng.Intn(len(cellSchemes))].String()
		discard := false
		for _, f := range cellFlags {
			if rng.Intn(3) == 0 {
				if f.set != nil {
					name += "+" + f.name
				}
				discard = discard || f.discard
			}
		}
		sc, _ := parseCell(name)
		dup := slices.ContainsFunc(out, func(o Scenario) bool { return o.Name == name })
		if _, err := core.NewCluster(sc.Cell); err == nil && !dup && !discard {
			out = append(out, sc)
		}
	}
	return out
}

// parseCell reads a cell's name back into its scenario, in which two
// clients run the generated script against two objects homed on the
// third node. A name with an unknown flag is refused.
func parseCell(name string) (Scenario, bool) {
	parts := strings.Split(name, "+")
	i := slices.IndexFunc(cellSchemes, func(s core.Scheme) bool { return s.String() == parts[0] })
	if i < 0 {
		return Scenario{}, false
	}
	sc := Scenario{Name: name, Cell: core.Config{Scheme: cellSchemes[i]}, Pop: []Pop{{2, 2, 2048}}, Script: generated}
	for _, p := range parts[1:] {
		j := slices.IndexFunc(cellFlags, func(f cellFlag) bool { return f.name == p && f.set != nil })
		if j < 0 {
			return Scenario{}, false
		}
		cellFlags[j].set(&sc.Cell)
	}
	return sc, true
}

// The generated script. Each client station issues genOps operations
// open loop, operation i at i·genStep plus a jitter drawn from
// [0, genJitter), so one station's operations overlap each other and
// the other station's, and the first ones race inside the explorer's
// window of maxFrames frames. Each is one of the five coherence
// operations on an object the station does not home, retried with
// doubling back-off when it fails (but for a release). An exclusive
// acquire mutates its copy, unless its drawn hold is below genHold/4,
// so that its release goes home without the bytes; then it releases the
// copy after that hold or, one time in genKeep, keeps it to the end of
// the run. The seed and the scenario's name determine every draw.
const (
	genOps    = 10
	genStep   = 60 * netsim.Microsecond
	genJitter = 40 * netsim.Microsecond
	genHold   = 200 * netsim.Microsecond
	genKeep   = 6
)

// generated is the generated script, run by client stations 0 and 1.
func generated(r *Run) error {
	h := fnv.New64a()
	h.Write([]byte(r.sc.Name))
	rng, sim := rand.New(rand.NewSource(r.seed^int64(h.Sum64()))), r.Cluster.Sim
	for w := range 2 {
		c := r.Cluster.Node(w).Coherence
		objs := slices.DeleteFunc(slices.Clone(r.Objects), func(o *object.Object) bool { return c.Store().IsHome(o.ID()) })
		for i := range genOps {
			o := objs[rng.Intn(len(objs))]
			id, kind := o.ID(), coherence.RecordKind(rng.Intn(int(coherence.RecRelease)+1))
			off := o.HeapBase() + uint64(rng.Intn(o.Size()-int(o.HeapBase())-16))
			at := netsim.Duration(i)*genStep + netsim.Duration(rng.Int63n(int64(genJitter)))
			hold, keep := netsim.Duration(rng.Int63n(int64(genHold))), rng.Intn(genKeep) == 0
			label := fmt.Appendf(nil, "gen-%d-%02d", w, i)
			sim.Schedule(at, func() {
				workload.Retry(sim, 250*netsim.Microsecond, 4, func(done func(error)) {
					switch kind {
					case coherence.RecRead:
						c.ReadAt(id, off, 16).Then(func(_ []byte, err error) { done(err) })
					case coherence.RecWrite:
						c.WriteAt(id, off, label).Then(func(_ struct{}, err error) { done(err) })
					case coherence.RecAcquireShared:
						c.AcquireShared(id).Then(func(_ *object.Object, err error) { done(err) })
					case coherence.RecRelease: // of a copy the station may not hold: not retried
						c.Release(id).Then(func(struct{}, error) { done(nil) })
					default:
						c.AcquireExclusive(id).Then(func(o *object.Object, err error) {
							// A home's exclusive acquire hands back its
							// authoritative copy, which only WriteAt changes.
							if err == nil && !c.Store().IsHome(id) {
								if hold >= genHold/4 {
									o.WriteAt(off, label)
								}
								if !keep {
									sim.Schedule(hold, func() { c.Release(id) })
								}
							}
							done(err)
						})
					}
				}, func(int, error) {})
			})
		}
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
		// writeAt lands mid-window: with fragment 8 delayed 1.6 ms, the
		// legacy reassembler tears the copy for a write from about 1,850
		// to 1,999 µs, a window that moves with the frames' timing.
		writeAt     = 1920 * netsim.Microsecond
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

// faultsScript crashes the home, node 2, as the measured phase starts,
// while node 3 holds the shared copy Warm gave it: with the home dead
// and node 3 issuing nothing, that copy survives to the promotion, and
// a nominal run that promoted nothing fails. The generated script
// starts at scriptAt, shortly before the promotion, so the clients'
// first operations find no home and retry through the outage, and the
// rest race on the promoted home, whose directory starts over. The
// checker's Epoch is taken at the crash so the rebuilt home's version
// history is not misread as a monotonicity violation: the crash
// discards the authoritative copy and the promotion rebuilds it, and
// both legitimately rewind the object's observable history.
func faultsScript(r *Run) error {
	const scriptAt = 400 * netsim.Microsecond
	c, inj := r.Cluster, fault.NewInjector(r.Cluster)
	inj.Arm(fault.NewSchedule().CrashNode(0, 2))
	r.Checker.Epoch()
	c.Sim.Schedule(scriptAt, func() { generated(r) })
	c.Run()
	if inj.Promotions() == 0 {
		return fmt.Errorf("check: the crashed home's object was not promoted")
	}
	return nil
}

// replicate gives node 3 a shared copy of the first object.
func replicate(r *Run) error {
	var err error
	r.Cluster.Node(3).Coherence.AcquireShared(r.Objects[0].ID()).Then(func(_ *object.Object, e error) { err = e })
	r.Cluster.Run()
	return err
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

// sharers is how many nodes share the dead-sharer object.
const sharers = 4

// shareWithAll has every sharer acquire a shared copy of the object.
func shareWithAll(r *Run) error {
	warm := 0
	for s := 1; s <= sharers; s++ {
		r.Cluster.Node(s).Coherence.AcquireShared(r.Objects[0].ID()).Then(func(_ *object.Object, err error) {
			if err == nil {
				warm++
			}
		})
	}
	r.Cluster.Run()
	if warm != sharers {
		return fmt.Errorf("check: %d/%d sharers acquired", warm, sharers)
	}
	return nil
}

// deadSharerScript is the one fan-out the checker runs: a sharer dies
// holding a shared copy, then the home invalidates the full (now stale)
// sharer set, twice. A sharer leaves the directory only when its ack
// arrives, so the live sharers leave and the dead one stays covered: if
// its removal were ever assumed, the home would forget a copy it never
// confirmed gone, and a revived holder could serve stale bytes.
func deadSharerScript(r *Run) error {
	c, o := r.Cluster, r.Objects[0]
	home := c.Node(0)
	// The last sharer dies silently; the home's directory still names
	// it, so both writes invalidate it.
	c.CrashNode(sharers)
	var writeErr error
	home.Coherence.WriteAt(o.ID(), o.HeapBase(), []byte("dead-sharer-one")).Then(func(_ struct{}, err error) { writeErr = err })
	c.Run()
	// Round two: the survivors re-acquire (indexable memory traffic for
	// the explorer) and the home invalidates the same stale sharer set
	// again.
	for s := 1; s < sharers; s++ {
		c.Node(s).Coherence.AcquireShared(o.ID())
	}
	c.Run()
	home.Coherence.WriteAt(o.ID(), o.HeapBase(), []byte("dead-sharer-#2"))
	c.Run()
	if writeErr != nil {
		return fmt.Errorf("check: invalidating write: %w", writeErr)
	}
	return nil
}

// deadSharerCovered asserts what a nominal run leaves in the home's
// directory: the three live sharers acked and left, and the dead one,
// whose ack never came, is still a sharer.
func deadSharerCovered(r *Run) error {
	dead := r.Cluster.Node(sharers).Station
	if got := r.Cluster.Node(0).Coherence.SharerSet(r.Objects[0].ID()); !slices.Equal(got, []wire.StationID{dead}) {
		return fmt.Errorf("check: sharer set %v after both writes, want only the dead sharer %v", got, dead)
	}
	return nil
}
