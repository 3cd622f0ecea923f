package experiments

import (
	"fmt"

	"repro/internal/workload"
)

// Experiments is gaspbench's command table, in usage order. Its last
// entry, `all`, runs every entry marked InAll and reads the union of
// their flags.
var Experiments []Experiment

func init() {
	all := Experiment{Name: "all", Summary: "every command marked * in turn, each report at its default path", Run: runAll}
	for _, e := range entries {
		if e.InAll {
			all.Flags |= e.Flags
		}
	}
	Experiments = append(entries, all)
}

// seedCSV are the flags nearly every entry reads.
const seedCSV = FlagSeed | FlagCSV

// figurePoints are Figures 2 and 3's x axis: the percentage of
// accesses to new (Figure 2) or moved (Figure 3) objects.
var figurePoints = []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}

var entries = []Experiment{
	{Name: "fig2", Summary: "Figure 2: discovery RTT vs % new objects", InAll: true, Flags: seedCSV | FlagAccesses,
		Run: func(o Options, out *Output) error {
			rows, err := Figure2(Fig2Config{Seed: o.Seed, AccessesPerPoint: o.Accesses, Points: figurePoints})
			return table(out, "Figure 2: RTT vs % accesses to new objects (E2E vs Controller)", rows, err)
		}},
	{Name: "fig3", Summary: "Figure 3: E2E access time vs % moved objects", InAll: true, Flags: seedCSV | FlagAccesses,
		Run: func(o Options, out *Output) error {
			rows, err := Figure3(Fig3Config{Seed: o.Seed, AccessesPerPoint: o.Accesses, Points: figurePoints})
			return table(out, "Figure 3: E2E access time vs % accesses to moved objects", rows, err)
		}},
	{Name: "capacity", Summary: "§3.2: switch exact-match table density (closed-form model)", InAll: true, Flags: FlagCSV,
		Run: func(o Options, out *Output) error {
			return table(out, "§3.2: exact-match table capacity (paper: ~1.8M @64b, ~850K @128b)", Capacity(), nil)
		}},
	{Name: "rendezvous", Summary: "Figure 1: manual/optimized/automatic/local rendezvous", InAll: true, Flags: seedCSV,
		Run: func(o Options, out *Output) error {
			rows, err := Rendezvous(RendezvousConfig{Seed: o.Seed})
			if err := table(out, "Figure 1: rendezvous of data and compute (inference task)", rows, err); err != nil {
				return err
			}
			for _, r := range rows {
				out.Note("   %-22s %s\n", r.Strategy+":", r.Description)
			}
			return nil
		}},
	{Name: "serialization", Summary: "§2+§3.1: deserialize vs byte-copy load", InAll: true, Flags: seedCSV,
		Run: func(o Options, out *Output) error {
			rows, err := Serialization(SerializationConfig{Seed: o.Seed, Repeats: 10,
				Sizes: []ModelShape{{500, 16}, {2000, 32}, {8000, 32}, {16000, 64}}})
			return table(out, "§2/§3.1: model loading — deserialize vs byte copy (wall clock)", rows, err)
		}},
	{Name: "ablations", Summary: "A1 prefetch, A2 loss, A3 table saturation",
		InAll: true, Flags: seedCSV, Run: runAblations},
	{Name: "scale", Summary: "E7 state-vs-traffic tradeoff, then E12: sharded homes at 10^4-10^6 objects",
		InAll: true, Report: "BENCH_scale.json", Flags: seedCSV | FlagSmoke,
		Run: func(o Options, out *Output) error {
			rows, err := ScaleTradeoff(ScaleConfig{Seed: o.Seed, NodeCounts: []int{3, 9, 27}, Accesses: 200})
			if err := table(out, "E7: discovery state-vs-traffic tradeoff as the cluster grows (§4)", rows, err); err != nil {
				return err
			}
			rep, err := scaleSweep(o.Seed, o.Smoke)
			if err != nil {
				return err
			}
			table(out, "E12: sharded homes + aggregated rules at scale (directory bytes, switch rates, knee)", rep.Rows, nil)
			for _, k := range rep.Knees {
				out.Note("   knee (%s, %d nodes): %d objects at %.0f ops/s — %s\n",
					k.Mode, k.Nodes, k.KneeObjects, k.Throughput, k.Reason)
			}
			out.Report(&rep.ReportHeader, rep)
			return nil
		}},
	{Name: "faults", Summary: "E8: scripted crash/flap/table-wipe recovery", InAll: true, Flags: seedCSV,
		Run: func(o Options, out *Output) error {
			rows, err := FaultRecovery(FaultsConfig{Seed: o.Seed, Accesses: 240, Classes: faultClasses})
			return table(out, "E8: recovery from scripted crash / link-flap / table-wipe faults (§5)", rows, err)
		}},
	{Name: "trace", Summary: "causal span tree + critical-path breakdown of one cold access per scheme", Flags: FlagSeed,
		Run: func(o Options, out *Output) error {
			reps, err := traceBreakdown(o.Seed)
			for i, r := range reps {
				if i > 0 {
					fmt.Fprintln(out)
				}
				fmt.Fprintf(out, "== %s: cold access, hop-by-hop (measured RTT %.2fµs, root span %.2fµs, %d spans)\n%s\n%s",
					r.Scheme, r.MeasuredUS, r.RootUS, r.Spans, r.Tree, r.Breakdown)
			}
			return err
		}},
	{Name: "load", Summary: "E9: offered-load sweep per discovery scheme with saturation-knee detection",
		InAll: true, Report: "BENCH_load.json", Flags: seedCSV,
		Run: func(o Options, out *Output) error {
			rep, err := workload.Sweep(loadConfig(o.Seed, loadRates))
			if err != nil {
				return err
			}
			for _, ss := range rep.Schemes {
				table(out, fmt.Sprintf("E9 (%s): offered load vs goodput and tail latency", ss.Scheme),
					rowsOf(ss.Points, func(p workload.Point) loadRow { return loadRow{p} }), nil)
				if k := ss.Knee; k.Index >= 0 {
					out.Note("   knee: %.0f ops/s offered (goodput %.0f, p99 %.1fµs) — %s\n",
						k.OfferedPerSec, k.GoodputPerSec, k.P99US, k.Reason)
				} else {
					out.Note("   knee: %s\n", k.Reason)
				}
			}
			fmt.Fprintln(out)
			out.Report(&rep.ReportHeader, rep)
			return nil
		}},
	{Name: "check", Summary: "E10: protocol invariant checker; exits nonzero on any violation",
		Flags: seedCSV | FlagCheck, Run: runCheck},
	{Name: "raft", Summary: "E13: replicated control plane: election, commit latency, leader-kill availability",
		Report: "BENCH_raft.json", Flags: seedCSV,
		Run: func(o Options, out *Output) error {
			rep, err := raftBench(o.Seed)
			if err != nil {
				return err
			}
			table(out, "E13: replicated control plane — election, commit latency, leader-kill availability", rep.Rows, nil)
			out.Report(&rep.ReportHeader, rep)
			lost := 0
			for _, r := range rep.Rows {
				if r.Replicas > 1 { // the unreplicated baseline loses its map by design
					lost += r.Lost
				}
			}
			if lost > 0 {
				return fmt.Errorf("raft: %d acknowledged announce(s) lost across replicated rows", lost)
			}
			return nil
		}},
	{Name: "hotpath", Summary: "E15: the saturation knee under per-frame vs batched delivery at one link speed",
		Report: "BENCH_hotpath.json", Flags: seedCSV,
		Run: func(o Options, out *Output) error {
			rep, err := hotpath(o.Seed, hotpathRates)
			if err != nil {
				return err
			}
			un, ba := rep.Unbatched.Knee, rep.Batched.Knee
			row := func(delivery string) func(workload.Point) hotpathRow {
				return func(p workload.Point) hotpathRow { return hotpathRow{delivery, p} }
			}
			table(out, "E15: saturation knee, per-frame vs batched delivery (same link speed)",
				append(rowsOf(rep.Unbatched.Points, row("per-frame")), rowsOf(rep.Batched.Points, row("batched"))...), nil)
			out.Note("   knee (per-frame): idx=%d %.0f ops/s — %s\n", un.Index, un.OfferedPerSec, un.Reason)
			out.Note("   knee (batched):   idx=%d %.0f ops/s — %s\n", ba.Index, ba.OfferedPerSec, ba.Reason)
			out.Note("   knee moved right: %v\n", rep.KneeMovedRight)
			out.Report(&rep.ReportHeader, rep)
			if !rep.KneeMovedRight {
				return fmt.Errorf("hotpath: batched knee (idx %d) did not move right of per-frame knee (idx %d)",
					ba.Index, un.Index)
			}
			return nil
		}},
}

// runAblations prints A1–A3, one table each.
func runAblations(o Options, out *Output) error {
	pf, err := AblationPrefetch(PrefetchConfig{Seed: o.Seed, ChainLen: 32})
	if err := table(out, "A1: reachability prefetch during remote traversal", pf, err); err != nil {
		return err
	}
	loss, err := AblationLoss(o.Seed, 256<<10, []float64{0, 1, 5, 10, 20, 25})
	if err := table(out, "A2: lightweight reliable transport under loss", loss, err); err != nil {
		return err
	}
	sat, err := AblationSaturation(o.Seed, 24)
	return table(out, "A3: discovery under switch-table saturation", sat, err)
}
