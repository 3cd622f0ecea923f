package check

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/trace"
)

// Run is a built scenario instance ready to drive: the cluster is
// constructed and its setup traffic (object creation, replication,
// warm-up) has already quiesced, so every frame the explorer's
// injector sees belongs to the measured phase. Drive runs that phase
// to completion and finishes with a quiescent CheckNow scan.
type Run struct {
	Cluster *core.Cluster
	Checker *Checker
	Drive   func() error
}

// Scenario names one reproducible workload the checker can watch and
// the explorer can perturb. Build constructs a fresh instance at the
// given seed; traced turns on full span sampling (SampleEvery 1) for
// violation replays.
type Scenario struct {
	Name        string
	Description string
	Build       func(seed int64, traced bool) (*Run, error)
}

// Scenarios returns the built-in scenario set, in the order the
// checker experiment (E10) sweeps them.
func Scenarios() []Scenario {
	return []Scenario{Fig2Scenario(), FaultsScenario(), LoadScenario(), EvictScenario(), RaftScenario(), IncAggDeadSharerScenario(), BatchScenario()}
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

func newCluster(seed int64, traced bool, mutate func(*core.Config)) (*core.Cluster, error) {
	cfg := core.Config{
		Seed:             seed,
		Scheme:           core.SchemeE2E,
		DiscoveryTimeout: 300 * netsim.Microsecond,
	}
	if traced {
		cfg.Trace = trace.Config{SampleEvery: 1}
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return core.NewCluster(cfg)
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

// Fig2Scenario is the fragment-reassembly stress: a reader interleaves
// small coherent reads with the shared acquisition of a 160KB object —
// three MaxFragData fragments per grant — while the home publishes a
// new version mid-transfer. Duplicate or version-skewed fragments
// (the two reassembler bugs this PR fixes) corrupt the cached copy in
// ways only the content-digest invariant sees.
func Fig2Scenario() Scenario {
	const (
		bigSize     = 160_000
		smallSize   = 2048
		smallReads  = 3
		maxAttempts = 6
		retryGap    = 300 * netsim.Microsecond
		writeAt     = 2500 * netsim.Microsecond // mid-transfer, before the 5ms request-timeout retry
		finalReadAt = 12 * netsim.Millisecond
	)
	return Scenario{
		Name:        "fig2",
		Description: "small reads + fragmented 160KB acquire with a concurrent home write",
		Build: func(seed int64, traced bool) (*Run, error) {
			c, err := newCluster(seed, traced, nil)
			if err != nil {
				return nil, err
			}
			home, reader := c.Node(1), c.Node(0)
			smalls := make([]oid.ID, smallReads)
			for i := range smalls {
				o, err := home.CreateObject(smallSize)
				if err != nil {
					return nil, err
				}
				fill(o, byte(i))
				smalls[i] = o.ID()
			}
			big, err := home.CreateObject(bigSize)
			if err != nil {
				return nil, err
			}
			fill(big, 0xA5)
			c.Run() // drain announcements: setup quiesces here
			k := New(c)
			drive := func() error {
				var driveErr error
				// Small coherent reads first: they populate the
				// explorer's frame index with request/response pairs
				// and warm the reader's resolver.
				step := 0
				var small func()
				small = func() {
					if step >= smallReads {
						acquireBig(c, reader, big.ID(), maxAttempts, retryGap)
						return
					}
					i := step
					step++
					reader.ReadRef(object.Global{Obj: smalls[i], Off: 1600}, 32, func(_ []byte, err error) {
						if err != nil {
							driveErr = fmt.Errorf("small read %d: %w", i, err)
						}
						small()
					})
				}
				small()
				// The home rewrites the big object's tail mid-transfer
				// and bumps the version — the seed for version-skew.
				c.Sim.Schedule(writeAt, func() {
					patch := make([]byte, 40_000)
					for i := range patch {
						patch[i] = byte(i*13) ^ 0x5A
					}
					home.Coherence.WriteAtCB(big.ID(), 100_000, patch, func(error) {})
				})
				// A late small read confirms the fabric still serves
				// after the transfer settles.
				c.Sim.Schedule(finalReadAt, func() {
					reader.ReadRef(object.Global{Obj: smalls[0], Off: 0}, 16, func([]byte, error) {})
				})
				c.Run()
				k.CheckNow()
				return driveErr
			}
			return &Run{Cluster: c, Checker: k, Drive: drive}, nil
		},
	}
}

// acquireBig acquires obj with bounded application-level retries; a
// failure after maxAttempts is tolerated (under adversarial drop-all
// schedules liveness is not guaranteed — only safety is).
func acquireBig(c *core.Cluster, reader *core.Node, obj oid.ID, maxAttempts int, retryGap netsim.Duration) {
	var attempt func(k int)
	attempt = func(k int) {
		reader.Coherence.AcquireSharedCB(obj, func(_ *object.Object, err error) {
			if err != nil && k+1 < maxAttempts {
				c.Sim.Schedule(retryGap<<k, func() { attempt(k + 1) })
			}
		})
	}
	attempt(0)
}

// FaultsScenario is the recovery path under the checker: a replicated
// object's home crashes mid-workload and a replica is promoted, while
// a reader retries through the outage. The checker's Epoch is
// scheduled at the crash so the rebuilt home's version history is not
// misread as a monotonicity violation.
func FaultsScenario() Scenario {
	const (
		objSize  = 4096
		crashAt  = 3 * netsim.Millisecond
		accesses = 24
	)
	return Scenario{
		Name:        "faults",
		Description: "home crash + replica promotion under a retrying reader",
		Build: func(seed int64, traced bool) (*Run, error) {
			c, err := newCluster(seed, traced, nil)
			if err != nil {
				return nil, err
			}
			home, replica, reader := c.Node(1), c.Node(2), c.Node(0)
			o, err := home.CreateObject(objSize)
			if err != nil {
				return nil, err
			}
			fill(o, 0x3C)
			repOK := false
			c.ReplicateObject(o.ID(), replica, func(err error) { repOK = err == nil })
			c.Run()
			if !repOK {
				return nil, fmt.Errorf("check: replicating object failed")
			}
			warm := false
			reader.ReadRef(object.Global{Obj: o.ID(), Off: 8}, 16, func(_ []byte, err error) { warm = err == nil })
			c.Run()
			if !warm {
				return nil, fmt.Errorf("check: warm read failed")
			}
			k := New(c)
			drive := func() error {
				inj := fault.NewInjector(c)
				inj.Arm(fault.NewSchedule().CrashNode(crashAt, 1))
				// The crash discards the authoritative copy and the
				// promotion rebuilds it; both legitimately rewind the
				// object's observable history.
				c.Sim.Schedule(crashAt, func() { k.Epoch() })
				const (
					interAccess = 150 * netsim.Microsecond
					maxAttempts = 8
					retryDelay  = 250 * netsim.Microsecond
				)
				var issue func(i int)
				issue = func(i int) {
					if i >= accesses {
						return
					}
					var attempt func(kk int)
					attempt = func(kk int) {
						reader.ReadRef(object.Global{Obj: o.ID(), Off: 8}, 16, func(_ []byte, err error) {
							if err != nil && kk+1 < maxAttempts {
								c.Sim.Schedule(retryDelay<<kk, func() { attempt(kk + 1) })
								return
							}
							c.Sim.Schedule(interAccess, func() { issue(i + 1) })
						})
					}
					attempt(0)
				}
				issue(0)
				c.Run()
				k.CheckNow()
				return nil
			}
			return &Run{Cluster: c, Checker: k, Drive: drive}, nil
		},
	}
}

// EvictScenario runs the sharded-home scheme under a filter-table
// budget far too small for its shard rules: with LRU eviction and punt
// fallback, acquires whose shard rule has been displaced must detour
// through the shard manager mid-operation. The coherence invariants
// (single-home, directory-coverage, single-exclusive) must survive the
// punt path exactly as they do the resident fast path — a punt is a
// re-route, never a re-home.
func EvictScenario() Scenario {
	const (
		objSize     = 4096
		objsPerNode = 3
		accesses    = 12
		// filterBudget leaves room for ~9 ternary rules; the 4-node,
		// 64-shard map needs several times that even after sibling-
		// prefix aggregation, so rules cycle through the tables and
		// every run takes at least one punt.
		filterBudget = 1024
	)
	return Scenario{
		Name:        "evict",
		Description: "sharded homes under a 1KiB filter budget: evicted shard rules punt mid-acquire",
		Build: func(seed int64, traced bool) (*Run, error) {
			c, err := newCluster(seed, traced, func(cfg *core.Config) {
				cfg.Scheme = core.SchemeSharded
				cfg.NumNodes = 4
				cfg.FilterTableMemory = filterBudget
				cfg.TableEviction = p4sim.EvictLRU
				cfg.ObjectMiss = p4sim.MissPunt
			})
			if err != nil {
				return nil, err
			}
			var objs []oid.ID
			for ni, n := range c.Nodes {
				for j := 0; j < objsPerNode; j++ {
					id, ok := c.NewIDHomedAt(n.Station)
					if !ok {
						return nil, fmt.Errorf("check: station %d owns no shards", n.Station)
					}
					o, err := object.New(id, objSize, 0)
					if err != nil {
						return nil, err
					}
					fill(o, byte(0x21*ni+j))
					if err := n.AdoptObjectLite(o); err != nil {
						return nil, err
					}
					objs = append(objs, o.ID())
				}
			}
			c.Run() // drain announcements: setup quiesces here
			k := New(c)
			drive := func() error {
				const (
					interAccess = 120 * netsim.Microsecond
					maxAttempts = 6
					retryDelay  = 250 * netsim.Microsecond
				)
				var driveErr error
				for w := 0; w < 2; w++ {
					node := c.Node(w)
					var issue func(i int)
					issue = func(i int) {
						if i >= accesses {
							return
						}
						// Stride past the reader's own homes so every
						// access crosses the fabric and needs its shard
						// rule resident (or a punt).
						obj := objs[(w*objsPerNode+objsPerNode+i)%len(objs)]
						finish := func() { c.Sim.Schedule(interAccess, func() { issue(i + 1) }) }
						var attempt func(kk int)
						attempt = func(kk int) {
							retry := func(err error) bool {
								if err != nil && kk+1 < maxAttempts {
									c.Sim.Schedule(retryDelay<<kk, func() { attempt(kk + 1) })
									return true
								}
								return false
							}
							switch i % 3 {
							case 0:
								node.Coherence.AcquireSharedCB(obj, func(_ *object.Object, err error) {
									if !retry(err) {
										finish()
									}
								})
							case 1:
								node.Coherence.WriteAtCB(obj, uint64(1800+16*w), []byte("evict-scenario-w"), func(err error) {
									if !retry(err) {
										finish()
									}
								})
							default:
								node.ReadRef(object.Global{Obj: obj, Off: 8}, 16, func(_ []byte, err error) {
									if !retry(err) {
										finish()
									}
								})
							}
						}
						attempt(0)
					}
					issue(0)
				}
				c.Run()
				k.CheckNow()
				// Nominal runs must actually exercise the punt path;
				// under adversarial schedules the explorer tolerates
				// this error (only safety violations count).
				if driveErr == nil && c.ShardPunts() == 0 {
					driveErr = fmt.Errorf("check: no shard-manager punt under a %d-byte filter budget", filterBudget)
				}
				return driveErr
			}
			return &Run{Cluster: c, Checker: k, Drive: drive}, nil
		},
	}
}

// RaftScenario drives the replicated control plane through its
// canonical fault: the consensus leader is killed early — so the
// explorer's frame window covers the election — while hosts keep
// announcing fresh objects and re-locating stale ones, and the deposed
// replica later restarts and replays its log. The raft invariants
// (one leader per term, committed-never-lost, applied-prefix
// agreement) are scanned at quiescence alongside the coherence set.
func RaftScenario() Scenario {
	const (
		objSize   = 2048
		setupObjs = 3
		crashAt   = 100 * netsim.Microsecond
		restartAt = 2500 * netsim.Microsecond
		accesses  = 10
		interOp   = 200 * netsim.Microsecond
		catchUp   = 8 * netsim.Millisecond
	)
	return Scenario{
		Name:        "raft",
		Description: "replicated control plane: leader kill + replica restart under announces and locates",
		Build: func(seed int64, traced bool) (*Run, error) {
			c, err := newCluster(seed, traced, func(cfg *core.Config) {
				cfg.Scheme = core.SchemeControllerHA
				cfg.ControllerReplicas = 3
			})
			if err != nil {
				return nil, err
			}
			if _, ok := c.AwaitControlLeader(50 * netsim.Millisecond); !ok {
				return nil, fmt.Errorf("check: no control-plane leader elected")
			}
			home, reader := c.Node(1), c.Node(0)
			setup := make([]oid.ID, setupObjs)
			for i := range setup {
				o, err := home.CreateObject(objSize)
				if err != nil {
					return nil, err
				}
				fill(o, byte(0x51*(i+1)))
				setup[i] = o.ID()
			}
			c.Run() // announcements commit through the leader; setup quiesces
			k := New(c)
			drive := func() error {
				inj := fault.NewInjector(c)
				inj.Arm(fault.NewSchedule().
					CrashLeader(crashAt).
					RestartController(restartAt, -1))
				var acked []oid.ID
				for i := 0; i < accesses; i++ {
					i := i
					c.Sim.Schedule(netsim.Duration(i)*interOp, func() {
						if i%2 == 0 {
							// Announce a fresh object: a proposal that must
							// commit through whatever leader exists (or
							// emerges) — the client follows redirects.
							o, err := object.New(c.NewID(), objSize, 0)
							if err != nil || home.Store.Put(o, 1, true) != nil {
								return
							}
							fill(o, byte(0x91+i))
							home.Discovery().AnnounceCB(o.ID(), func(err error) {
								if err == nil {
									acked = append(acked, o.ID())
								}
							})
							return
						}
						// Re-locate a setup object through the control
						// plane (the stale mark forces a MsgLocate).
						obj := setup[i%setupObjs]
						reader.Resolver.Invalidate(obj)
						reader.ReadRef(object.Global{Obj: obj, Off: 8}, 16, func([]byte, error) {})
					})
				}
				c.Run()
				// Foreground work has drained; daemon heartbeats now walk
				// the restarted replica's log back to the leader's.
				c.Sim.RunFor(catchUp)
				var finalErr error
				reader.Resolver.Invalidate(setup[0])
				reader.ReadRef(object.Global{Obj: setup[0], Off: 8}, 16, func(_ []byte, err error) { finalErr = err })
				c.Run()
				k.CheckNow()
				if finalErr != nil {
					return fmt.Errorf("check: post-heal locate failed: %w", finalErr)
				}
				// Every acknowledged announce committed; none may be lost.
				lead := c.LeaderController()
				if lead == nil {
					return fmt.Errorf("check: no control-plane leader after heal")
				}
				for _, obj := range acked {
					if owner, ok := lead.Lookup(obj); !ok || owner != home.Station {
						return fmt.Errorf("check: acknowledged announce of %s lost after failover", obj.Short())
					}
				}
				return nil
			}
			return &Run{Cluster: c, Checker: k, Drive: drive}, nil
		},
	}
}

// LoadScenario is a small E9-style mixed workload: several readers
// acquire, read, and write a shared working set concurrently — the
// directory-coverage and single-exclusive invariants get their
// exercise here.
func LoadScenario() Scenario {
	const (
		objects  = 4
		objSize  = 2048
		accesses = 30
	)
	return Scenario{
		Name:        "load",
		Description: "mixed read/write working set across three nodes",
		Build: func(seed int64, traced bool) (*Run, error) {
			c, err := newCluster(seed, traced, nil)
			if err != nil {
				return nil, err
			}
			home := c.Node(2)
			objs := make([]oid.ID, objects)
			for i := range objs {
				o, err := home.CreateObject(objSize)
				if err != nil {
					return nil, err
				}
				fill(o, byte(0x11*i))
				objs[i] = o.ID()
			}
			c.Run()
			k := New(c)
			drive := func() error {
				const (
					interAccess = 100 * netsim.Microsecond
					maxAttempts = 6
					retryDelay  = 200 * netsim.Microsecond
				)
				for w := 0; w < 2; w++ {
					node := c.Node(w)
					var issue func(i int)
					issue = func(i int) {
						if i >= accesses {
							return
						}
						obj := objs[(i+w)%objects]
						finish := func() { c.Sim.Schedule(interAccess, func() { issue(i + 1) }) }
						var attempt func(kk int)
						attempt = func(kk int) {
							retry := func(err error) bool {
								if err != nil && kk+1 < maxAttempts {
									c.Sim.Schedule(retryDelay<<kk, func() { attempt(kk + 1) })
									return true
								}
								return false
							}
							switch i % 3 {
							case 0:
								node.ReadRef(object.Global{Obj: obj, Off: 4}, 16, func(_ []byte, err error) {
									if !retry(err) {
										finish()
									}
								})
							case 1:
								node.Coherence.WriteAtCB(obj, uint64(1600+16*w), []byte("load-scenario-w"), func(err error) {
									if !retry(err) {
										finish()
									}
								})
							default:
								node.Coherence.AcquireSharedCB(obj, func(_ *object.Object, err error) {
									if !retry(err) {
										finish()
									}
								})
							}
						}
						attempt(0)
					}
					issue(0)
				}
				c.Run()
				k.CheckNow()
				return nil
			}
			return &Run{Cluster: c, Checker: k, Drive: drive}, nil
		},
	}
}

// BatchScenario runs the load workload with batched frame delivery and
// a modeled host receive cost, so concurrent requests land inside
// multi-frame doorbell batches. The explorer's perturbations then hit
// frames that travel *inside* a batch: a dropped frame must leave its
// batchmates intact, a duplicate must not double-deliver its
// neighbours, and a delayed frame must migrate to a later doorbell
// without reordering its own link (arrival order within a batch is
// send order). The coherence invariants — content digests, directory
// coverage, single-exclusive — are the judge; the nominal run also
// asserts coalescing actually engaged (some batch carried >1 frame).
func BatchScenario() Scenario {
	const (
		objects  = 4
		objSize  = 2048
		accesses = 30
		rxCost   = 5 * netsim.Microsecond
	)
	return Scenario{
		Name:        "batch",
		Description: "mixed working set under batched delivery: perturbations inside doorbell batches",
		Build: func(seed int64, traced bool) (*Run, error) {
			c, err := newCluster(seed, traced, func(cfg *core.Config) {
				cfg.BatchDelivery = true
				cfg.HostRxCost = rxCost
			})
			if err != nil {
				return nil, err
			}
			home := c.Node(2)
			objs := make([]oid.ID, objects)
			for i := range objs {
				o, err := home.CreateObject(objSize)
				if err != nil {
					return nil, err
				}
				fill(o, byte(0x2B*i))
				objs[i] = o.ID()
			}
			c.Run()
			k := New(c)
			drive := func() error {
				const (
					interAccess = 40 * netsim.Microsecond
					maxAttempts = 6
					retryDelay  = 200 * netsim.Microsecond
				)
				// Two clients hammer the same home with a tight access
				// gap (below rxCost) so arrivals queue behind the
				// home's receive context and doorbell batches grow.
				for w := 0; w < 2; w++ {
					node := c.Node(w)
					var issue func(i int)
					issue = func(i int) {
						if i >= accesses {
							return
						}
						obj := objs[(i+w)%objects]
						finish := func() { c.Sim.Schedule(interAccess, func() { issue(i + 1) }) }
						var attempt func(kk int)
						attempt = func(kk int) {
							retry := func(err error) bool {
								if err != nil && kk+1 < maxAttempts {
									c.Sim.Schedule(retryDelay<<kk, func() { attempt(kk + 1) })
									return true
								}
								return false
							}
							switch i % 3 {
							case 0:
								node.ReadRef(object.Global{Obj: obj, Off: 4}, 16, func(_ []byte, err error) {
									if !retry(err) {
										finish()
									}
								})
							case 1:
								node.Coherence.WriteAtCB(obj, uint64(1600+16*w), []byte("batch-scenario-w"), func(err error) {
									if !retry(err) {
										finish()
									}
								})
							default:
								node.Coherence.AcquireSharedCB(obj, func(_ *object.Object, err error) {
									if !retry(err) {
										finish()
									}
								})
							}
						}
						attempt(0)
					}
					issue(0)
				}
				c.Run()
				k.CheckNow()
				// Nominal runs must actually form multi-frame batches —
				// otherwise the explorer is perturbing the per-frame
				// path under a different name. Under adversarial
				// schedules this error is tolerated (only safety
				// violations count).
				if fired, frames := c.Net.BatchStats(); frames <= fired {
					return fmt.Errorf("check: no coalescing under batched delivery (%d doorbells, %d frames)", fired, frames)
				}
				return nil
			}
			return &Run{Cluster: c, Checker: k, Drive: drive}, nil
		},
	}
}

// IncAggDeadSharerScenario is the ack-aggregation adversary: a sharer
// dies holding a shared copy, then the home multicasts an invalidation
// over the full (now stale) sharer set. The aggregating switch must
// flush only the acks it really received — if it ever fabricated the
// dead sharer's ack, the home would drop the directory entry for a
// copy it never confirmed dead, and a revived holder could serve
// stale bytes. The baseline run asserts the honest path end to end:
// switch flush by timeout, home-side fallback for the silent member,
// live members still coalesced.
func IncAggDeadSharerScenario() Scenario {
	const (
		objSize = 2048
		sharers = 4
	)
	return Scenario{
		Name:        "inc-agg-dead-sharer",
		Description: "sharer crash during multicast invalidation with in-switch ack aggregation",
		Build: func(seed int64, traced bool) (*Run, error) {
			c, err := newCluster(seed, traced, func(cfg *core.Config) {
				cfg.Scheme = core.SchemeController
				cfg.NumNodes = sharers + 1
				cfg.IncMcast = true
				cfg.IncAckAgg = true
			})
			if err != nil {
				return nil, err
			}
			home := c.Node(0)
			o, err := home.CreateObject(objSize)
			if err != nil {
				return nil, err
			}
			fill(o, 0x6B)
			obj := o.ID()
			c.Run()
			warm := 0
			for s := 1; s <= sharers; s++ {
				c.Node(s).Coherence.AcquireSharedCB(obj, func(_ *object.Object, err error) {
					if err == nil {
						warm++
					}
				})
			}
			c.Run() // setup quiesces: every sharer holds a copy
			if warm != sharers {
				return nil, fmt.Errorf("check: %d/%d sharers acquired", warm, sharers)
			}
			k := New(c)
			drive := func() error {
				// The last sharer dies silently; the home's directory
				// still names it, so both multicast rounds cover it.
				c.CrashNode(sharers)
				var writeErr error
				home.Coherence.WriteAtCB(obj, o.HeapBase(), []byte("inc-dead-sharer"), func(err error) {
					writeErr = err
				})
				c.Run()
				// Round two: the survivors re-acquire (indexable memory
				// traffic for the explorer) and the home invalidates the
				// same stale sharer set again, reusing the group.
				for s := 1; s < sharers; s++ {
					c.Node(s).Coherence.AcquireSharedCB(obj, func(*object.Object, error) {})
				}
				c.Run()
				home.Coherence.WriteAtCB(obj, o.HeapBase(), []byte("inc-round-two!"), func(error) {})
				c.Run()
				k.CheckNow()
				if writeErr != nil {
					return fmt.Errorf("check: invalidating write: %w", writeErr)
				}
				// Baseline-only expectations (the explorer ignores Drive
				// errors and judges perturbed runs by the invariants).
				inc := home.Coherence.IncCounters()
				if inc.McastInvSent != 2 {
					return fmt.Errorf("check: %d multicast invalidations, want 2", inc.McastInvSent)
				}
				if inc.McastTimeouts < 2 || inc.FallbackInvalidates < 2 {
					return fmt.Errorf("check: dead sharer's ack fabricated (timeouts=%d fallbacks=%d)",
						inc.McastTimeouts, inc.FallbackInvalidates)
				}
				var flushed, coalesced uint64
				for _, eng := range c.IncEngines {
					flushed += eng.Counters().AggTimeouts
					coalesced += eng.Counters().AcksCoalesced
				}
				if flushed < 2 {
					return fmt.Errorf("check: aggregation flushed %d rounds by timeout, want 2", flushed)
				}
				if coalesced < 2*(sharers-1) {
					return fmt.Errorf("check: only %d live acks coalesced, want %d", coalesced, 2*(sharers-1))
				}
				return nil
			}
			return &Run{Cluster: c, Checker: k, Drive: drive}, nil
		},
	}
}
