package main

import (
	"repro/internal/workload"
)

// perLayer is what single layers do, for explaining a moved end-to-end
// number. Every workload reports every one from its traced run; a
// metric of a layer the workload does not cross reads 0. Layer =
// package name, before the dot.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, row := range harnessRows {
		defs = append(defs,
			metricDef{row + "_" + harnessUnit(row), harnessUnit(row), "lower", "wall", "isolated harness: one call into the layer"},
			metricDef{row + "_allocs", "1/op", "lower", "count", "isolated harness: heap allocations of that call"})
	}
	defs = append(defs,
		metricDef{"discovery.e2e_cold_vt_us", "us", "lower", "virtual", "one cold read, broadcast discovery (Fig. 2)"},
		metricDef{"discovery.controller_cold_vt_us", "us", "lower", "virtual", "one cold read, controller-installed route (Fig. 2)"},
		metricDef{"discovery.sharded_cold_vt_us", "us", "lower", "virtual", "one cold read, shard-prefix route"},
		metricDef{"core.read_unattributed_pct", "%", "lower", "wall", "|sum of layer rows x per-read counts - core.remote_read_ns| / core.remote_read_ns"},
	)
	count := func(name, unit, better, what string) {
		defs = append(defs, metricDef{name, unit, better, "count", what})
	}
	count("netsim.events_per_op", "1/op", "lower", "simulator events processed per op")
	defs = append(defs, metricDef{"netsim.wall_ns_per_event", "ns", "lower", "wall", "host time per simulator event at nominal host speed; x events_per_op = 1/wall_ops_s"})
	count("netsim.frames_per_op", "1/op", "lower", "frames put on simulated links per op")
	count("netsim.drops_per_op", "1/op", "lower", "frames the fabric dropped per op")
	count("realnet.frames_per_op", "1/op", "lower", "datagrams written to loopback sockets per op")
	count("p4sim.lookups_per_op", "1/op", "lower", "switch pipeline passes per op")
	count("p4sim.floods_per_op", "1/op", "lower", "frames flooded per op")
	count("p4sim.miss_share", "share", "lower", "share of pipeline passes that left the fast path (flood, punt, drop)")
	count("transport.frames_per_op", "1/op", "lower", "frames endpoints sent per op, acks and retransmissions included")
	count("transport.retransmits_per_op", "1/op", "lower", "retransmissions per op")
	count("transport.spurious_rtx_share", "share", "lower", "duplicates received / retransmissions sent: retransmissions of frames that had arrived")
	count("transport.timeouts_per_op", "1/op", "lower", "request deadlines that fired per op")
	count("discovery.broadcasts_per_op", "1/op", "lower", "discovery broadcasts per op")
	count("discovery.cache_hit_share", "share", "higher", "resolves served from the destination cache")
	count("coherence.remote_share", "share", "lower", "ops that left the node / all ops")
	count("coherence.invalidates_per_op", "1/op", "lower", "invalidations sent per op")
	count("mux.drops_per_op", "1/op", "lower", "frames no handler claimed per op")
	count("dataplane.live_bufs_delta", "count", "lower", "frame buffers still held after the drain, minus before the first op; must be 0")
	defs = append(defs, metricDef{"workload.gen_lag_p99_us", "us", "lower", "workload", "issue time - intended time: how late the generator ran"})
	count("workload.queued_share", "share", "lower", "ops held in the generator's backlog before issue")
	for _, k := range []string{"read", "write", "acq_rel", "invoke"} {
		defs = append(defs, metricDef{"workload." + k + "_p50_us", "us", "lower", "workload", "median latency of this op kind"})
	}
	defs = append(defs, metricDef{"workload.lat_p999_us", "us", "lower", "workload", "99.9th percentile latency; 0 when under 10,000 completions"})
	count("workload.clients", "count", "higher", "outstanding ops of the closed loop (sim_mix_ladder: the last count inside the SLO)")
	defs = append(defs, metricDef{"workload.peak_ops_s", "1/s", "higher", "workload", "goodput (sim_mix_ladder: the highest any rung inside the SLO reached; the knee is where it peaks)"})
	count("gc.cycles", "count", "lower", "garbage collections during the measured phase")
	defs = append(defs, metricDef{"gc.pause_total_ms", "ms", "lower", "wall", "stop-the-world pause total during the measured phase"})
	count("gc.bytes_per_op", "B/op", "lower", "heap bytes allocated per completed op")
	defs = append(defs, metricDef{"host.speed", "share", "higher", "wall", "speed of the host during the measured phase by the reference kernel, 1 = nominal; a nominal-speed figure x this = what the clock read"})

	for _, seg := range traceSegments {
		defs = append(defs, metricDef{"trace." + seg + "_us", "us", "lower", "workload", "mean per sampled op of critical-path time in this segment"})
	}
	defs = append(defs, metricDef{"trace.root_us", "us", "lower", "workload", "mean root span of a sampled op: the segments sum to it"})
	count("trace.rtx_per_op", "1/op", "lower", "retransmit markers per sampled op")
	count("trace.sampled_ops", "count", "higher", "root operations the tracer sampled (1 in 64)")
	defs = append(defs, metricDef{"trace.overhead_pct", "%", "lower", "wall", "1 - traced/untraced wall_ops_s at the same length and seed"})
	return defs
}

// opKindNames maps workload op kinds to their metric name part.
var opKindNames = [numKinds]string{
	workload.OpRead: "read", workload.OpWrite: "write",
	workload.OpAcquireRelease: "acq_rel", workload.OpInvoke: "invoke",
}

// layerCounts derives the per-workload counts from one untraced pass:
// counter deltas over the measured phase divided by the ops that
// finished in it.
func layerCounts(s *spec, p *pass, clients int) map[string]float64 {
	ops := float64(p.telOps)
	per := func(name string) float64 { return p.tel[name] / ops }
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	t := p.tel
	remote := t["coherence.remote_reads"] + t["coherence.remote_writes"] + t["coherence.remote_acquires"]
	m := map[string]float64{
		"p4sim.lookups_per_op": per("switch.frames_in"),
		"p4sim.floods_per_op":  per("switch.flooded"),
		"p4sim.miss_share": share(t["switch.flooded"]+t["switch.miss_floods"]+t["switch.miss_punts"]+
			t["switch.to_controller"]+t["switch.dropped"], t["switch.frames_in"]),
		"transport.frames_per_op":      per("transport.frames_sent"),
		"transport.retransmits_per_op": per("transport.retransmits"),
		"transport.spurious_rtx_share": share(t["transport.duplicates"], t["transport.retransmits"]),
		"transport.timeouts_per_op":    per("transport.request_timeout"),
		"discovery.broadcasts_per_op":  per("discovery.broadcasts"),
		"discovery.cache_hit_share":    share(t["discovery.cache_hits"], t["discovery.cache_hits"]+t["discovery.cache_misses"]),
		"coherence.remote_share":       share(remote, remote+t["coherence.local_hits"]),
		"coherence.invalidates_per_op": per("coherence.invalidates_sent"),
		"mux.drops_per_op":             per("mux.dropped"),
		"dataplane.live_bufs_delta":    float64(p.bufs),
		"workload.queued_share":        share(float64(p.queued), float64(p.generated)),
		"workload.clients":             float64(clients),
		"gc.cycles":                    float64(p.gcN),
		"gc.pause_total_ms":            float64(p.gcPause.Nanoseconds()) / 1e6,
		"gc.bytes_per_op":              share(float64(p.allocB), float64(p.d.completed)),
		"host.speed":                   p.speed,
	}
	if s.clock() == "virtual" {
		m["netsim.events_per_op"] = float64(p.events) / ops
		m["netsim.wall_ns_per_event"] = share(float64(p.wall.Nanoseconds())*p.speed, float64(p.events))
		m["netsim.frames_per_op"] = per("net.frames_sent")
		m["netsim.drops_per_op"] = per("net.frames_dropped")
	} else {
		m["realnet.frames_per_op"] = per("net.frames_sent")
	}
	if lag := sortedCopy(p.d.genLag); supported(len(lag), 0.99) {
		m["workload.gen_lag_p99_us"] = quantile(lag, 0.99) / 1e3
	}
	for k, name := range opKindNames {
		if lat := sortedCopy(p.d.lat[k]); supported(len(lat), 0.5) {
			m["workload."+name+"_p50_us"] = quantile(lat, 0.5) / 1e3
		}
	}
	if lat := p.latencies(); supported(len(lat), 0.999) {
		m["workload.lat_p999_us"] = quantile(lat, 0.999) / 1e3
	}
	return m
}
