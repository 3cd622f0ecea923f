package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/p4sim"
	"repro/internal/prefetch"
	"repro/internal/transport"
	"repro/internal/workload"
)

// --- A1: reachability prefetch during remote traversal (§3.1) ---

// PrefetchRow compares a remote data-structure traversal with and
// without FOT-driven prefetching.
type PrefetchRow struct {
	Prefetch       bool
	ChainLen       int
	TotalUS        float64
	RemoteAcquires uint64
	LocalHits      uint64
}

func (r PrefetchRow) cells() []any {
	return []any{"prefetch", r.Prefetch, "chain", r.ChainLen, "total_us", r.TotalUS,
		"remote_acquires", r.RemoteAcquires, "local_hits", r.LocalHits}
}

// PrefetchConfig parameterizes the traversal.
type PrefetchConfig struct {
	Seed int64
	// ChainLen is the linked-structure depth.
	ChainLen int
}

const (
	// prefetchObjectSize is the size of each chain object.
	prefetchObjectSize = 8192
	// prefetchThinkTime is per-hop application processing, which gives
	// the prefetcher a window to run ahead. An 8 KiB object takes ~120µs
	// of store-and-forward across the four-hop fabric; think time above
	// that lets the prefetcher run fully ahead of the traversal.
	prefetchThinkTime = 250 * netsim.Microsecond
)

// AblationPrefetch traverses a chain of objects living on a remote
// node, following one cross-object reference per hop, with the
// prefetcher off and on.
func AblationPrefetch(cfg PrefetchConfig) ([]PrefetchRow, error) {
	return sweep([]bool{false, true}, func(enable bool) (PrefetchRow, error) { return prefetchRun(cfg, enable) })
}

// buildChain homes a chain of n objects on owner, each holding a
// reference to the next at slot.
func buildChain(owner *core.Node, n int) (head object.Global, slot uint64, err error) {
	objs, err := workload.Populate([]*core.Node{owner}, n, prefetchObjectSize)
	if err != nil {
		return object.Global{}, 0, err
	}
	for i, o := range objs {
		s, aerr := o.Alloc(8, 8)
		if aerr != nil {
			return object.Global{}, 0, aerr
		}
		if i == 0 {
			slot = s
		}
		if i+1 < n {
			if rerr := o.StoreRef(s, objs[i+1].ID(), 0, object.FlagRead); rerr != nil {
				return object.Global{}, 0, rerr
			}
		} else {
			if rerr := o.PutPtr(s, 0); rerr != nil {
				return object.Global{}, 0, rerr
			}
		}
	}
	return object.Global{Obj: objs[0].ID()}, slot, nil
}

func prefetchRun(cfg PrefetchConfig, enable bool) (PrefetchRow, error) {
	ccfg := core.Config{Seed: cfg.Seed, Scheme: core.SchemeE2E}
	if enable {
		ccfg.Prefetch = &prefetch.Config{MaxDepth: 2, MaxObjects: 8, BudgetBytes: 1 << 20}
	}
	c, err := core.NewCluster(ccfg)
	if err != nil {
		return PrefetchRow{}, err
	}
	driver, owner := c.Node(0), c.Node(1)
	head, slot, err := buildChain(owner, cfg.ChainLen)
	if err != nil {
		return PrefetchRow{}, err
	}
	c.Run()
	c.ResetStats()
	driver.Coherence.ResetCounters()

	start := c.Sim.Now()
	visited := 0
	failed := error(nil)
	var walk func(g object.Global)
	walk = func(g object.Global) {
		driver.Deref(g).Then(func(o *object.Object, err error) {
			if err != nil {
				failed = err
				return
			}
			visited++
			next, lerr := o.LoadRef(slot)
			if lerr != nil {
				failed = lerr
				return
			}
			if next.IsNil() {
				return
			}
			// Application think time before following the reference.
			c.Sim.Schedule(prefetchThinkTime, func() { walk(next) })
		})
	}
	walk(head)
	c.Run()
	if failed != nil {
		return PrefetchRow{}, failed
	}
	if visited != cfg.ChainLen {
		return PrefetchRow{}, fmt.Errorf("visited %d of %d", visited, cfg.ChainLen)
	}
	cc := driver.Coherence.Counters()
	return PrefetchRow{
		Prefetch:       enable,
		ChainLen:       cfg.ChainLen,
		TotalUS:        us(c.Sim.Now().Sub(start)),
		RemoteAcquires: cc.RemoteAcquires,
		LocalHits:      cc.LocalHits,
	}, nil
}

// --- A2: reliable transport under loss (§3.2) ---

// LossRow reports one loss-rate point.
type LossRow struct {
	LossPct      float64
	CompletionUS float64
	Retransmits  uint64
	Delivered    bool
}

func (r LossRow) cells() []any {
	return []any{"loss_pct", r.LossPct, "completion_us", r.CompletionUS,
		"retransmits", r.Retransmits, "delivered", r.Delivered}
}

// AblationLoss transfers one object under increasing frame loss,
// exercising the lightweight ack/retry transport.
func AblationLoss(seed int64, objectSize int, lossPcts []float64) ([]LossRow, error) {
	return sweep(lossPcts, func(pct float64) (LossRow, error) {
		c, err := core.NewCluster(core.Config{
			Seed:      seed + int64(pct*10),
			Scheme:    core.SchemeE2E,
			Fabric:    netsim.FabricConfig{DropRate: pct / 100},
			Discovery: discovery.Config{Retries: 40, Timeout: 500 * netsim.Microsecond},
			Transport: transport.Config{
				RetryBudget:          100 * netsim.Millisecond,
				MaxRetransmitTimeout: 2 * netsim.Millisecond,
				RequestTimeout:       200 * netsim.Millisecond,
			},
		})
		if err != nil {
			return LossRow{}, err
		}
		owner, reader := c.Node(1), c.Node(0)
		o, err := owner.CreateObject(objectSize)
		if err != nil {
			return LossRow{}, err
		}
		c.Run()
		c.ResetStats()
		start := c.Sim.Now()
		end := start
		delivered := false
		reader.Deref(object.Global{Obj: o.ID()}).Then(func(_ *object.Object, err error) {
			delivered = err == nil
			end = c.Sim.Now()
		})
		c.Run()
		return LossRow{
			LossPct:      pct,
			CompletionUS: us(end.Sub(start)),
			Retransmits:  retransmits(c),
			Delivered:    delivered,
		}, nil
	})
}

// --- A3: discovery under switch-table saturation (§3.2/§4) ---

// SaturationRow reports one scheme's behaviour with saturated tables.
type SaturationRow struct {
	Scheme        string
	Objects       int
	TableCapacity int
	RulesPerSw    float64 // object-table plus filter-table entries
	Successes     int
	Failures      int
	MeanUS        float64
}

func (r SaturationRow) cells() []any {
	return []any{"scheme", r.Scheme, "objects", r.Objects, "table_cap", r.TableCapacity,
		"rules_per_sw", r.RulesPerSw, "successes", r.Successes, "failures", r.Failures,
		"mean_us", r.MeanUS}
}

// AblationSaturation creates more objects than the switch object
// tables can hold and accesses each once. Pure controller routing fails
// for the overflow objects (their frames drop in the fabric); the
// sharded scheme is §3.2's "hierarchical identifier overlay": one
// prefix rule per shard in a filter table of the same budget, so its
// rule count stays constant whatever the object count.
func AblationSaturation(seed int64, numObjects int) ([]SaturationRow, error) {
	schemes := []core.Scheme{core.SchemeController, core.SchemeSharded}
	return sweep(schemes, func(scheme core.Scheme) (SaturationRow, error) {
		c, err := core.NewCluster(core.Config{
			Seed:   seed + int64(scheme),
			Scheme: scheme,
			// Budget for ~8 object entries per switch (128-bit keys,
			// 32 B/entry, fill 0.87 → 8 entries at 300 B), and for
			// two of the filter table's 96-byte shard entries.
			Tables:    p4sim.TablesConfig{ObjectMemory: 300, FilterMemory: 300},
			Discovery: discovery.Config{Shards: 2},
			// A short route-on-object timeout, so table-saturation
			// retries settle quickly.
			Transport: transport.Config{RequestTimeout: 500 * netsim.Microsecond},
		})
		if err != nil {
			return SaturationRow{}, err
		}
		driver := c.Node(0)
		owner := c.Node(1)
		cap0 := c.Switches[0].ObjectTable().Capacity()

		objs, err := workload.Populate([]*core.Node{owner}, numObjects, 2048)
		if err != nil {
			return SaturationRow{}, err
		}
		c.Run() // announcements + installs

		succ, fail := 0, 0
		var total netsim.Duration
		err = workload.RunToCompletion(c, numObjects, 0, func(i int, next func()) {
			start := c.Sim.Now()
			driver.Coherence.ReadAt(objs[i].ID(), 0, 64).Then(func(_ []byte, err error) {
				if err == nil {
					succ++
					total += c.Sim.Now().Sub(start)
				} else {
					fail++
				}
				next()
			})
		})
		if err != nil {
			return SaturationRow{}, err
		}
		mean := 0.0
		if succ > 0 {
			mean = us(total) / float64(succ)
		}
		rules := 0
		for _, sw := range c.Switches {
			rules += sw.ObjectTable().Len()
			if ft := sw.FilterTable(); ft != nil {
				rules += ft.Len()
			}
		}
		return SaturationRow{
			Scheme:        scheme.String(),
			Objects:       numObjects,
			TableCapacity: cap0,
			RulesPerSw:    float64(rules) / float64(len(c.Switches)),
			Successes:     succ,
			Failures:      fail,
			MeanUS:        mean,
		}, nil
	})
}
