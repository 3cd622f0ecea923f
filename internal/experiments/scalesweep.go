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
	// virtual-time exact).
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

func (r ScaleSweepRow) cells() []any {
	return []any{"mode", r.Mode, "nodes", r.Nodes, "objects", r.Objects,
		"rules", r.FilterRulesTotal, "rule_cap", r.FilterCapacityEach,
		"dir_bytes_per_obj", r.DirectoryBytesPerObj, "lookup_ns", r.SharderLookupNS,
		"hit_rate", fixed(3, r.HitRate), "punts", r.MissPunts, "floods", r.MissFloods,
		"evictions", r.Evictions, "ops_per_s", fixed(0, r.ThroughputOpsPerSec), "mean_us", r.MeanUS,
		"failed", r.Failed}
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

// scaleZipfS is the skew of E12's access keys.
const scaleZipfS = 1.1

type scaleGrid struct {
	objectCounts, nodeCounts []int
	shards, accesses         int
}

// scaleGrids are E12's published grid and, under -smoke, its CI grid.
var scaleGrids = map[bool]scaleGrid{
	false: {objectCounts: []int{10_000, 100_000, 1_000_000}, nodeCounts: []int{8, 32, 104}, shards: 256, accesses: 4_000},
	true:  {objectCounts: []int{1_000, 10_000}, nodeCounts: []int{4, 8}, shards: 64, accesses: 400},
}

// scaleSeries is one (mode, nodes) series of E12's object counts.
type scaleSeries = pair[string, int]

// scaleSweep runs E12, on its CI grid when smoke. The resident regime
// covers the full objects × nodes grid; the two eviction regimes sweep
// object counts at the smallest fabric, where the flood-vs-punt cost
// difference is easiest to read.
func scaleSweep(seed int64, smoke bool) (*ScaleReport, error) {
	g := scaleGrids[smoke]
	var series []scaleSeries
	for _, nodes := range g.nodeCounts {
		series = append(series, scaleSeries{"resident", nodes})
	}
	series = append(series, scaleSeries{"evict-punt", g.nodeCounts[0]}, scaleSeries{"evict-flood", g.nodeCounts[0]})
	rows, err := sweep(grid(series, g.objectCounts), func(p pair[scaleSeries, int]) (ScaleSweepRow, error) {
		mode, nodes, objects := p.a.a, p.a.b, p.b
		return scaleSweepPoint(seed, g, mode, nodes, objects)
	})
	if err != nil {
		return nil, err
	}
	rep := &ScaleReport{ReportHeader: workload.ReportHeader{SchemaVersion: 1, Seed: seed}, ZipfS: scaleZipfS, Rows: rows}
	n := len(g.objectCounts) // the rows come series by series
	for i := range series {
		rep.Knees = append(rep.Knees, scaleKnee(rows[i*n:(i+1)*n]))
	}
	return rep, nil
}

func scaleSweepPoint(seed int64, g scaleGrid, mode string, nodes, objects int) (ScaleSweepRow, error) {
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

	// Sharder lookup cost over the full population, on the wall clock.
	start := wallNanos()
	var sink uint64
	for _, id := range ids {
		sink ^= uint64(c.Sharder.HomeOf(id))
	}
	lookupNS := float64(wallNanos()-start) / float64(len(ids))
	_ = sink

	// Access phase: the driver works Zipf-popular keys in a closed
	// loop — three bus-style reads (no caching, no directory state)
	// for every shared acquire (caches at the driver and registers a
	// sharer slot in the home's directory, the per-object state E12
	// meters). Key 0 is the hottest; key→ID is the identity into the
	// population slice.
	keys := workload.NewKeys(workload.KeyConfig{
		Dist: workload.KeyZipf, Population: objects, ZipfS: scaleZipfS,
	}, cfg.Seed+1)
	driver := c.Node(0)
	c.ResetStats()
	simStart, lastDone := c.Sim.Now(), c.Sim.Now()
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
			lastDone = c.Sim.Now()
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
	// The throughput's window ends with the last op, not with the drain
	// after it (the requester's tell of its mark).
	elapsed := lastDone.Sub(simStart)

	tel := c.Telemetry()
	row := ScaleSweepRow{
		Mode:             mode,
		Nodes:            nodes,
		Objects:          objects,
		Shards:           c.Sharder.Shards(),
		DirectoryEntries: tel.Value("coherence.directory_entries"),
		DirectoryBytes:   tel.Value("coherence.directory_bytes"),
		SharderLookupNS:  lookupNS,
		Accesses:         g.accesses,
		Failed:           failed,
		FilterHits:       tel.Value("switch.filter_hits"),
		ObjectMisses:     tel.Value("switch.object_misses"),
		MissPunts:        tel.Value("switch.miss_punts"),
		MissFloods:       tel.Value("switch.miss_floods"),
		Evictions:        tel.Value("sharded.filter_evictions"),
		PuntsServed:      tel.Value("sharded.punts_served"),
	}
	for _, sw := range c.Switches {
		ft := sw.FilterTable()
		row.FilterRulesTotal += ft.Len()
		row.FilterRulesMax = max(row.FilterRulesMax, ft.Len())
		row.FilterCapacityEach = ft.Capacity()
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

// scaleKnee finds, in one (mode, nodes) series in ascending object
// order, the largest object count still within kneeFraction of the
// series' best throughput. Unlike workload's knee, which is the last
// rung before the first that fails a p99 or goodput test of offered
// load, this one asks how far a population can grow before throughput
// falls away from its best.
func scaleKnee(rs []ScaleSweepRow) ScaleKnee {
	best := 0.0
	for _, r := range rs {
		best = max(best, r.ThroughputOpsPerSec)
	}
	knee := ScaleKnee{Mode: rs[0].Mode, Nodes: rs[0].Nodes, KneeObjects: -1,
		Reason: fmt.Sprintf("no point held %.0f%% of best %.0f ops/s", kneeFraction*100, best)}
	for _, r := range rs {
		if r.ThroughputOpsPerSec >= kneeFraction*best {
			knee.KneeObjects = r.Objects
			knee.Throughput = r.ThroughputOpsPerSec
			knee.Reason = fmt.Sprintf("largest population within %.0f%% of best %.0f ops/s",
				kneeFraction*100, best)
		}
	}
	return knee
}
