package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/workload"
)

// E12 — the million-object scale sweep. The paper's prototype routes
// on object identity for a handful of objects; §3.2's capacity
// analysis is exactly the question of what happens when the object
// table no longer fits in switch SRAM. E12 answers it with the sharded
// scheme: homes are a pure function of the ID (placement.Sharder), the
// fabric carries one aggregated ternary rule per shard-egress pair
// instead of one exact entry per object, and the per-home coherence
// directory is the only per-object state — measured here in bytes per
// tracked object alongside lookup cost, switch hit/miss/punt rates,
// and the throughput knee as the object count grows.

// ScaleSweepConfig tunes E12.
type ScaleSweepConfig struct {
	Seed int64
	// Smoke shrinks the grid to CI scale (10^4 objects, small fabrics).
	Smoke bool
	// WallNanos reads a monotonic wall clock in nanoseconds. The
	// sharder lookup cost (SharderLookupNS) is E12's one real-CPU
	// measurement; the reader is injected so this package stays off
	// the runtime wall clock (checkseam gate 2). Nil skips the
	// measurement and reports 0.
	WallNanos func() int64
}

// ScaleSweepRow is one (mode, nodes, objects) point.
type ScaleSweepRow struct {
	// Mode is the filter-table regime: "resident" (default SRAM budget,
	// every aggregated rule stays installed), "evict-punt" or
	// "evict-flood" (budget squeezed to a handful of rules, LRU
	// eviction, misses punted to the shard manager or flooded).
	Mode    string `json:"mode"`
	Nodes   int    `json:"nodes"`
	Objects int    `json:"objects"`
	Shards  int    `json:"shards"`

	// Fabric state: aggregated shard rules actually installed, the
	// largest per-switch rule count, and the SRAM-model capacity each
	// filter table would hold — occupancy must track shards, not
	// objects.
	FilterRulesTotal   int `json:"filter_rules_total"`
	FilterRulesMax     int `json:"filter_rules_max_per_switch"`
	FilterCapacityEach int `json:"filter_capacity_per_switch"`

	// Directory footprint across all homes after the access phase.
	DirectoryEntries     uint64  `json:"directory_entries"`
	DirectoryBytes       uint64  `json:"directory_bytes"`
	DirectoryBytesPerObj float64 `json:"directory_bytes_per_tracked_object"`

	// SharderLookupNS is wall-clock ns per HomeOf over the whole
	// population (the one non-deterministic field; everything else is
	// virtual-time exact). 0 when no WallNanos reader was injected.
	SharderLookupNS float64 `json:"sharder_lookup_ns_per_op"`

	Accesses int `json:"accesses"`
	Failed   int `json:"failed"`

	FilterHits   uint64 `json:"switch_filter_hits"`
	ObjectMisses uint64 `json:"switch_object_misses"`
	MissPunts    uint64 `json:"switch_miss_punts"`
	MissFloods   uint64 `json:"switch_miss_floods"`
	Evictions    uint64 `json:"switch_filter_evictions"`
	PuntsServed  uint64 `json:"shard_mgr_punts_served"`
	// HitRate is filter hits over object-routed lookups (hits+misses).
	HitRate float64 `json:"switch_hit_rate"`

	ThroughputOpsPerSec float64 `json:"throughput_ops_per_sec"`
	MeanUS              float64 `json:"mean_access_us"`
}

// ScaleKnee marks, per (mode, nodes) series, the largest object count
// whose throughput still holds kneeFraction of the series' best.
type ScaleKnee struct {
	Mode        string  `json:"mode"`
	Nodes       int     `json:"nodes"`
	KneeObjects int     `json:"knee_objects"`
	Throughput  float64 `json:"throughput_ops_per_sec"`
	Reason      string  `json:"reason"`
}

// ScaleReport is the E12 artifact (BENCH_scale.json). GeneratedAt is
// stamped by the caller after the run; SharderLookupNS aside, the body
// is deterministic from the seed.
type ScaleReport struct {
	workload.ReportHeader
	ZipfS float64         `json:"zipf_s"`
	Rows  []ScaleSweepRow `json:"rows"`
	Knees []ScaleKnee     `json:"knees"`
}

// kneeFraction of a series' best throughput defines "still healthy".
const kneeFraction = 0.7

// E12 object shape: minimal FOT so the population is mostly payload;
// reads land past the header+FOT.
const (
	scaleObjSize = 64
	scaleFOTCap  = 1
	scaleIOOff   = object.HeaderSize + object.FOTEntrySize*scaleFOTCap
)

// pressureFilterBudget squeezes the filter table to a handful of
// ternary rules so eviction and the miss fallback are exercised.
const pressureFilterBudget = 1024

type scaleGrid struct {
	objectCounts []int
	nodeCounts   []int
	shards       int
	accesses     int
	zipfS        float64
}

func scaleGridFor(smoke bool) scaleGrid {
	if smoke {
		return scaleGrid{
			objectCounts: []int{1_000, 10_000},
			nodeCounts:   []int{4, 8},
			shards:       64,
			accesses:     400,
			zipfS:        1.1,
		}
	}
	return scaleGrid{
		objectCounts: []int{10_000, 100_000, 1_000_000},
		nodeCounts:   []int{8, 32, 104},
		shards:       256,
		accesses:     4_000,
		zipfS:        1.1,
	}
}

// ScaleSweep runs E12. The resident regime covers the full
// objects × nodes grid; the two eviction regimes sweep object counts
// at the smallest fabric, where the flood-vs-punt cost difference is
// easiest to read.
func ScaleSweep(cfg ScaleSweepConfig) (*ScaleReport, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	g := scaleGridFor(cfg.Smoke)
	rep := &ScaleReport{ReportHeader: workload.ReportHeader{SchemaVersion: 1, Seed: cfg.Seed}, ZipfS: g.zipfS}

	for _, nodes := range g.nodeCounts {
		for _, objs := range g.objectCounts {
			row, err := scaleSweepPoint(cfg.Seed, g, "resident", nodes, objs, cfg.WallNanos)
			if err != nil {
				return nil, fmt.Errorf("resident/%dn/%dobj: %w", nodes, objs, err)
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	for _, mode := range []string{"evict-punt", "evict-flood"} {
		for _, objs := range g.objectCounts {
			row, err := scaleSweepPoint(cfg.Seed, g, mode, g.nodeCounts[0], objs, cfg.WallNanos)
			if err != nil {
				return nil, fmt.Errorf("%s/%dn/%dobj: %w", mode, g.nodeCounts[0], objs, err)
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	rep.Knees = scaleKnees(rep.Rows)
	return rep, nil
}

func scaleSweepPoint(seed int64, g scaleGrid, mode string, nodes, objects int, wall func() int64) (ScaleSweepRow, error) {
	cfg := core.Config{
		Seed:      seed + int64(nodes)*1_000 + int64(objects),
		Scheme:    core.SchemeSharded,
		NumNodes:  nodes,
		Fabric:    netsim.FabricConfig{Leaves: scaleLeaves(nodes)},
		Discovery: discovery.Config{Shards: g.shards},
		Tables:    p4sim.TablesConfig{Eviction: p4sim.EvictLRU},
	}
	switch mode {
	case "evict-punt":
		cfg.Tables.FilterMemory = pressureFilterBudget
		cfg.Tables.ObjectMiss = p4sim.MissPunt
	case "evict-flood":
		cfg.Tables.FilterMemory = pressureFilterBudget
		cfg.Tables.ObjectMiss = p4sim.MissFlood
	default:
		cfg.Tables.ObjectMiss = p4sim.MissPunt // residents never miss; fallback is moot
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return ScaleSweepRow{}, err
	}

	// Population: objects adopted at their sharded homes, round-robin
	// over the stations rendezvous gave shards to. No metadata, no
	// announcements, no per-object switch rules — per-object state is
	// the store entry plus (after access) a directory slot.
	var homes []*core.Node
	for _, n := range c.Nodes {
		if _, ok := c.NewIDHomedAt(n.Station); ok {
			homes = append(homes, n)
		}
	}
	if len(homes) == 0 {
		return ScaleSweepRow{}, fmt.Errorf("no station owns a shard")
	}
	ids := make([]oid.ID, objects)
	for i := range ids {
		home := homes[i%len(homes)]
		id, _ := c.NewIDHomedAt(home.Station)
		o, err := object.New(id, scaleObjSize, scaleFOTCap)
		if err != nil {
			return ScaleSweepRow{}, err
		}
		if err := home.AdoptObjectLite(o); err != nil {
			return ScaleSweepRow{}, err
		}
		ids[i] = id
	}

	// Sharder lookup cost over the full population, wall clock via the
	// injected reader (nil under pure-sim callers: reported as 0).
	var lookupNS float64
	if wall != nil {
		start := wall()
		var sink uint64
		for _, id := range ids {
			sink ^= uint64(c.Sharder.HomeOf(id))
		}
		lookupNS = float64(wall()-start) / float64(len(ids))
		_ = sink
	}

	// Access phase: the driver works Zipf-popular keys in a closed
	// loop — three bus-style reads (no caching, no directory state)
	// for every shared acquire (caches at the driver and registers a
	// sharer slot in the home's directory, the per-object state E12
	// meters). Key 0 is the hottest; key→ID is the identity into the
	// population slice.
	keys := workload.NewKeys(workload.KeyConfig{
		Dist: workload.KeyZipf, Population: objects, ZipfS: g.zipfS,
	}, cfg.Seed+1)
	driver := c.Node(0)
	c.ResetStats()
	simStart := c.Sim.Now()
	var totalUS float64
	completed, failed := 0, 0
	err = workload.RunToCompletion(c, g.accesses, 0, func(i int, next func()) {
		obj := ids[keys.Pick()]
		opStart := c.Sim.Now()
		done := func(err error) {
			if err != nil {
				failed++
			} else {
				totalUS += us(c.Sim.Now().Sub(opStart))
				completed++
			}
			next()
		}
		if i%4 == 0 {
			driver.Coherence.AcquireShared(obj).Then(
				func(_ *object.Object, err error) { done(err) })
		} else {
			driver.Coherence.ReadAt(obj, scaleIOOff, 8).Then(
				func(_ []byte, err error) { done(err) })
		}
	})
	if err != nil {
		return ScaleSweepRow{}, err
	}
	elapsed := c.Sim.Now().Sub(simStart)

	row := ScaleSweepRow{
		Mode:            mode,
		Nodes:           nodes,
		Objects:         objects,
		Shards:          c.Sharder.Shards(),
		SharderLookupNS: lookupNS,
		Accesses:        g.accesses,
		Failed:          failed,
		PuntsServed:     c.ShardPunts(),
	}
	for _, sw := range c.Switches {
		ft := sw.FilterTable()
		row.FilterRulesTotal += ft.Len()
		if ft.Len() > row.FilterRulesMax {
			row.FilterRulesMax = ft.Len()
		}
		row.FilterCapacityEach = ft.Capacity()
		row.Evictions += ft.Evictions()
		cs := sw.Counters()
		row.FilterHits += cs.FilterHits
		row.ObjectMisses += cs.ObjectMisses
		row.MissPunts += cs.MissPunts
		row.MissFloods += cs.MissFloods
	}
	for _, n := range c.Nodes {
		d := n.Coherence.Directory()
		row.DirectoryEntries += uint64(d.Len())
		row.DirectoryBytes += uint64(d.Bytes())
	}
	if row.DirectoryEntries > 0 {
		row.DirectoryBytesPerObj = float64(row.DirectoryBytes) / float64(row.DirectoryEntries)
	}
	if lookups := row.FilterHits + row.ObjectMisses; lookups > 0 {
		row.HitRate = float64(row.FilterHits) / float64(lookups)
	}
	if completed > 0 {
		row.MeanUS = totalUS / float64(completed)
	}
	if secs := float64(elapsed) / float64(netsim.Second); secs > 0 {
		row.ThroughputOpsPerSec = float64(completed) / secs
	}
	return row, nil
}

// scaleLeaves sizes the fabric so each leaf carries at most 8 hosts.
func scaleLeaves(nodes int) int {
	leaves := (nodes + 7) / 8
	if leaves < 2 {
		leaves = 2
	}
	return leaves
}

// scaleKnees finds, for each (mode, nodes) series with at least two
// object counts, the largest object count still within kneeFraction of
// the series' best throughput.
func scaleKnees(rows []ScaleSweepRow) []ScaleKnee {
	type key struct {
		mode  string
		nodes int
	}
	series := map[key][]ScaleSweepRow{}
	var order []key
	for _, r := range rows {
		k := key{r.Mode, r.Nodes}
		if _, seen := series[k]; !seen {
			order = append(order, k)
		}
		series[k] = append(series[k], r)
	}
	var knees []ScaleKnee
	for _, k := range order {
		rs := series[k]
		if len(rs) < 2 {
			continue
		}
		best := 0.0
		for _, r := range rs {
			if r.ThroughputOpsPerSec > best {
				best = r.ThroughputOpsPerSec
			}
		}
		knee := ScaleKnee{Mode: k.mode, Nodes: k.nodes, KneeObjects: -1,
			Reason: fmt.Sprintf("no point held %.0f%% of best %.0f ops/s", kneeFraction*100, best)}
		for _, r := range rs { // rows are in ascending object order
			if r.ThroughputOpsPerSec >= kneeFraction*best {
				knee.KneeObjects = r.Objects
				knee.Throughput = r.ThroughputOpsPerSec
				knee.Reason = fmt.Sprintf("largest population within %.0f%% of best %.0f ops/s",
					kneeFraction*100, best)
			}
		}
		knees = append(knees, knee)
	}
	return knees
}
