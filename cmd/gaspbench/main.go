// Command gaspbench regenerates every table and figure in the paper's
// evaluation: one command per experiment, flags after the command word.
// The usage text below is generated from the command table in this file
// (TestHeaderMatchesUsage keeps the two identical).
//
//	usage: gaspbench <command> [flags]
//
//	commands (* = part of `all`; -> = default report path):
//	* fig2           Figure 2: discovery RTT vs % new objects
//	* fig3           Figure 3: E2E access time vs % moved objects
//	* capacity       §3.2: switch exact-match table density (closed-form model)
//	* rendezvous     Figure 1: manual/optimized/automatic/local rendezvous
//	* serialization  §2+§3.1: deserialize vs byte-copy load
//	* ablations      A1 prefetch, A2 loss, A3 hybrid, A4 CRDT, A5 in-network sequencer, A6 overlay routing
//	* scale          E7 state-vs-traffic tradeoff, then E12: sharded homes at 10^4-10^6 objects -> BENCH_scale.json
//	* faults         E8: scripted crash/flap/table-wipe recovery
//	  trace          causal span tree + critical-path breakdown of one cold access per scheme
//	* load           E9: offered-load sweep per discovery scheme with saturation-knee detection -> BENCH_load.json
//	  check          E10: protocol invariant checker; exits nonzero on any violation
//	  raft           E13: replicated control plane: election, commit latency, leader-kill availability -> BENCH_raft.json
//	  inc            E14: in-network cache, multicast invalidation, ack aggregation as on/off pairs -> BENCH_inc.json
//	  hotpath        E15: the saturation knee under per-frame vs batched delivery at one link speed -> BENCH_hotpath.json
//	  all            every command marked * in turn, each report at its default path
//
//	flags, after the command word (every command takes these):
//	  -accesses N        N accesses per sweep point for fig2/fig3 (default 2000)
//	  -csv               machine-readable output for plotting
//	  -out FILE          write the report to FILE (only commands with a default report path)
//	  -seed N            random seed N (default 42)
//
//	scale also takes:
//	  -smoke             E12 on its CI grid (up to 10^4 objects, 4 and 8 nodes) instead of the published one
//
//	check also takes:
//	  -buggy             restore the legacy reassembly bugs (self-test)
//	  -runs N            at most N perturbed executions per scenario
//	  -scenario NAME     explore only scenario NAME (default: all)
//	  -schedule S        replay exactly schedule S (requires -scenario)
//
//	all also takes:
//	  -smoke             E12 on its CI grid (up to 10^4 objects, 4 and 8 nodes) instead of the published one
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// options holds every flag value: the shared flags each command takes,
// then the few that only scale and check register.
type options struct {
	seed     int64
	accesses int
	csv      bool
	out      string

	smoke              bool   // scale (and all, which forwards it)
	scenario, schedule string // check
	buggy              bool   // check
	runs               int    // check
}

// command is one row of the command table: everything main, the usage
// text and `all` need to know about an experiment.
type command struct {
	name    string
	summary string
	// inAll marks the commands `all` runs, in table order.
	inAll bool
	// report is the default -out path; empty means the command writes
	// no report and refuses -out.
	report string
	// flags registers command-specific flags beside the shared ones.
	flags func(fs *flag.FlagSet, o *options)
	run   func(o *options) error
}

// commands is filled in init because runAll ranges over it.
var commands []command

func init() {
	commands = []command{
		{name: "fig2", summary: "Figure 2: discovery RTT vs % new objects",
			inAll: true, run: runFig2},
		{name: "fig3", summary: "Figure 3: E2E access time vs % moved objects",
			inAll: true, run: runFig3},
		{name: "capacity", summary: "§3.2: switch exact-match table density (closed-form model)",
			inAll: true, run: runCapacity},
		{name: "rendezvous", summary: "Figure 1: manual/optimized/automatic/local rendezvous",
			inAll: true, run: runRendezvous},
		{name: "serialization", summary: "§2+§3.1: deserialize vs byte-copy load",
			inAll: true, run: runSerialization},
		{name: "ablations", summary: "A1 prefetch, A2 loss, A3 hybrid, A4 CRDT, A5 in-network sequencer, A6 overlay routing",
			inAll: true, run: runAblations},
		{name: "scale", summary: "E7 state-vs-traffic tradeoff, then E12: sharded homes at 10^4-10^6 objects",
			inAll: true, report: "BENCH_scale.json", flags: smokeFlag, run: runScale},
		{name: "faults", summary: "E8: scripted crash/flap/table-wipe recovery",
			inAll: true, run: runFaults},
		{name: "trace", summary: "causal span tree + critical-path breakdown of one cold access per scheme",
			run: runTrace},
		{name: "load", summary: "E9: offered-load sweep per discovery scheme with saturation-knee detection",
			inAll: true, report: "BENCH_load.json", run: runLoad},
		{name: "check", summary: "E10: protocol invariant checker; exits nonzero on any violation",
			flags: func(fs *flag.FlagSet, o *options) {
				fs.StringVar(&o.scenario, "scenario", "", "explore only scenario `NAME` (default: all)")
				fs.StringVar(&o.schedule, "schedule", "", "replay exactly schedule `S` (requires -scenario)")
				fs.BoolVar(&o.buggy, "buggy", false, "restore the legacy reassembly bugs (self-test)")
				fs.IntVar(&o.runs, "runs", 0, "at most `N` perturbed executions per scenario")
			},
			run: runCheck},
		{name: "raft", summary: "E13: replicated control plane: election, commit latency, leader-kill availability",
			report: "BENCH_raft.json", run: runRaft},
		{name: "inc", summary: "E14: in-network cache, multicast invalidation, ack aggregation as on/off pairs",
			report: "BENCH_inc.json", run: runInc},
		{name: "hotpath", summary: "E15: the saturation knee under per-frame vs batched delivery at one link speed",
			report: "BENCH_hotpath.json", run: runHotpath},
		{name: "all", summary: "every command marked * in turn, each report at its default path",
			flags: smokeFlag, run: runAll},
	}
}

// smokeFlag is scale's own flag: E12's published grid takes 9 s, every
// other command is cheap at the size it publishes.
func smokeFlag(fs *flag.FlagSet, o *options) {
	fs.BoolVar(&o.smoke, "smoke", false, "E12 on its CI grid (up to 10^4 objects, 4 and 8 nodes) instead of the published one")
}

// newFlagSet is the one flag grammar: every command takes the shared
// flags after the command word, plus whatever its table row registers.
func newFlagSet(c *command, o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("gaspbench "+c.name, flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 42, "random seed `N` (default 42)")
	fs.IntVar(&o.accesses, "accesses", 2000, "`N` accesses per sweep point for fig2/fig3 (default 2000)")
	fs.BoolVar(&o.csv, "csv", false, "machine-readable output for plotting")
	fs.StringVar(&o.out, "out", c.report, "write the report to `FILE` (only commands with a default report path)")
	if c.flags != nil {
		c.flags(fs, o)
	}
	return fs
}

// flagLines renders fs's flags (minus skip's) one per line.
func flagLines(b *strings.Builder, fs, skip *flag.FlagSet) {
	fs.VisitAll(func(f *flag.Flag) {
		if skip != nil && skip.Lookup(f.Name) != nil {
			return
		}
		arg, usage := flag.UnquoteUsage(f)
		fmt.Fprintf(b, "  %-18s %s\n", strings.TrimSpace("-"+f.Name+" "+arg), usage)
	})
}

// usageText is the whole usage message, generated from the table.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: gaspbench <command> [flags]\n\ncommands (* = part of `all`; -> = default report path):\n")
	for i := range commands {
		c := &commands[i]
		mark := " "
		if c.inAll {
			mark = "*"
		}
		fmt.Fprintf(&b, "%s %-14s %s", mark, c.name, c.summary)
		if c.report != "" {
			fmt.Fprintf(&b, " -> %s", c.report)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nflags, after the command word (every command takes these):\n")
	shared := newFlagSet(&command{}, &options{})
	flagLines(&b, shared, nil)
	for i := range commands {
		if c := &commands[i]; c.flags != nil {
			fmt.Fprintf(&b, "\n%s also takes:\n", c.name)
			flagLines(&b, newFlagSet(c, &options{}), shared)
		}
	}
	return b.String()
}

// parse resolves `<command> [flags]` into a table row and its options.
// Every error is a usage error (main prints the usage text and exits
// 2); flag.ErrHelp is the one that needs no message of its own.
func parse(args []string) (*command, *options, error) {
	if len(args) == 0 {
		return nil, nil, flag.ErrHelp
	}
	var c *command
	for i := range commands {
		if commands[i].name == args[0] {
			c = &commands[i]
		}
	}
	if c == nil {
		return nil, nil, fmt.Errorf("unknown command %q", args[0])
	}
	o := &options{}
	fs := newFlagSet(c, o)
	fs.SetOutput(io.Discard) // main reports the error and the usage text once
	if err := fs.Parse(args[1:]); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", c.name, err)
	}
	if fs.NArg() != 0 {
		return nil, nil, fmt.Errorf("%s: unexpected argument %q (flags follow the command word)", c.name, fs.Arg(0))
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["out"] && c.report == "" {
		return nil, nil, fmt.Errorf("%s writes no report (-out)", c.name)
	}
	return c, o, nil
}

func main() {
	c, o, err := parse(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "gaspbench:", err)
		}
		fmt.Fprint(os.Stderr, usageText())
		os.Exit(2)
	}
	if err := c.run(o); err != nil {
		fmt.Fprintln(os.Stderr, "gaspbench:", err)
		os.Exit(1)
	}
}

// runAll runs every table row marked inAll, each writing its report to
// its default path.
func runAll(o *options) error {
	for i := range commands {
		c := &commands[i]
		if !c.inAll {
			continue
		}
		sub := *o
		sub.out = c.report
		if err := c.run(&sub); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runFig2(o *options) error {
	rows, err := experiments.Figure2(experiments.Fig2Config{
		Seed:             o.seed,
		AccessesPerPoint: o.accesses,
	})
	if err != nil {
		return err
	}
	t := newTable("Figure 2: RTT vs % accesses to new objects (E2E vs Controller)",
		"pct_new", "ctrl_mean_us", "ctrl_p99_us", "e2e_mean_us", "e2e_p99_us", "bcast_per_100acc")
	for _, r := range rows {
		t.row(r.PctNew, r.ControllerMeanUS, r.ControllerP99US,
			r.E2EMeanUS, r.E2EP99US, r.BroadcastsPer100)
	}
	t.print(o.csv)
	return nil
}

func runFig3(o *options) error {
	rows, err := experiments.Figure3(experiments.Fig3Config{
		Seed:             o.seed,
		AccessesPerPoint: o.accesses,
	})
	if err != nil {
		return err
	}
	t := newTable("Figure 3: E2E access time vs % accesses to moved objects",
		"pct_moved", "mean_us", "p50_us", "p90_us", "p99_us", "sd_us",
		"stale_per_acc", "bcast_per_100acc")
	for _, r := range rows {
		t.row(r.PctMoved, r.MeanUS, r.P50US, r.P90US, r.P99US, r.StddevUS,
			fmt.Sprintf("%.2f", r.StaleRetriesPerAccess), r.BroadcastsPer100)
	}
	t.print(o.csv)
	return nil
}

func runCapacity(o *options) error {
	rows := experiments.Capacity()
	t := newTable("§3.2: exact-match table capacity (paper: ~1.8M @64b, ~850K @128b)",
		"key_bits", "entry_bytes", "mem_mib", "model_entries", "achieved_at_scaled", "scaled_mib")
	for _, r := range rows {
		t.row(r.KeyBits, r.EntryBytes, r.MemoryMiB, r.ModelCapacity,
			r.AchievedEntries, r.ScaledMemoryMiB)
	}
	t.print(o.csv)
	return nil
}

func runRendezvous(o *options) error {
	rows, err := experiments.Rendezvous(experiments.RendezvousConfig{Seed: o.seed})
	if err != nil {
		return err
	}
	t := newTable("Figure 1: rendezvous of data and compute (inference task)",
		"strategy", "completion_us", "kb_moved", "frames", "executor", "result_ok")
	for _, r := range rows {
		t.row(r.Strategy, r.CompletionUS, r.KBMoved, r.Frames, r.Executor.String(), r.ResultOK)
	}
	t.print(o.csv)
	if !o.csv {
		for _, r := range rows {
			fmt.Printf("   %-22s %s\n", r.Strategy+":", r.Description)
		}
	}
	return nil
}

func runSerialization(o *options) error {
	rows, err := experiments.Serialization(experiments.SerializationConfig{Seed: o.seed})
	if err != nil {
		return err
	}
	t := newTable("§2/§3.1: model loading — deserialize vs byte copy (wall clock)",
		"model", "ser_kb", "obj_kb", "deser_us", "adopt_us", "infer_us",
		"loadfrac_baseline", "loadfrac_ours", "speedup")
	for _, r := range rows {
		t.row(fmt.Sprintf("%dx%d", r.Buckets, r.Dim),
			r.SerializedKB, r.ObjectKB, r.DeserializeUS,
			fmt.Sprintf("%.2f", r.ByteCopyUS), r.InferUS,
			fmt.Sprintf("%.2f", r.LoadFractionBaseline),
			fmt.Sprintf("%.2f", r.LoadFractionOurs), r.Speedup)
	}
	t.print(o.csv)
	return nil
}

// runScale prints E7 (the small-scale state-vs-traffic tradeoff) and
// then runs E12, the million-object sharded sweep, writing
// BENCH_scale.json.
func runScale(o *options) error {
	rows, err := experiments.ScaleTradeoff(experiments.ScaleConfig{Seed: o.seed})
	if err != nil {
		return err
	}
	t := newTable("E7: discovery state-vs-traffic tradeoff as the cluster grows (§4)",
		"scheme", "nodes", "object_rules", "fabric_frames_per_acc", "mean_us")
	for _, r := range rows {
		t.row(r.Scheme, r.Nodes, r.ObjectRules, r.FabricFramesPerAccess, r.MeanUS)
	}
	t.print(o.csv)
	fmt.Println()

	rep, err := experiments.ScaleSweep(experiments.ScaleSweepConfig{
		Seed:      o.seed,
		Smoke:     o.smoke,
		WallNanos: wallNanos,
	})
	if err != nil {
		return err
	}
	t2 := newTable("E12: sharded homes + aggregated rules at scale (directory bytes, switch rates, knee)",
		"mode", "nodes", "objects", "rules", "rule_cap", "dir_bytes_per_obj",
		"lookup_ns", "hit_rate", "punts", "floods", "evictions", "ops_per_s", "mean_us", "failed")
	for _, r := range rep.Rows {
		t2.row(r.Mode, r.Nodes, r.Objects, r.FilterRulesTotal, r.FilterCapacityEach,
			fmt.Sprintf("%.1f", r.DirectoryBytesPerObj), fmt.Sprintf("%.1f", r.SharderLookupNS),
			fmt.Sprintf("%.3f", r.HitRate), r.MissPunts, r.MissFloods, r.Evictions,
			fmt.Sprintf("%.0f", r.ThroughputOpsPerSec), fmt.Sprintf("%.1f", r.MeanUS), r.Failed)
	}
	t2.print(o.csv)
	if !o.csv {
		for _, k := range rep.Knees {
			fmt.Printf("   knee (%s, %d nodes): %d objects at %.0f ops/s — %s\n",
				k.Mode, k.Nodes, k.KneeObjects, k.Throughput, k.Reason)
		}
	}
	return writeReport(o.out, &rep.ReportHeader, rep)
}

func runFaults(o *options) error {
	rows, err := experiments.FaultRecovery(experiments.FaultsConfig{Seed: o.seed})
	if err != nil {
		return err
	}
	t := newTable("E8: recovery from scripted crash / link-flap / table-wipe faults (§5)",
		"scheme", "fault", "accesses", "failed", "degraded",
		"mean_us", "p99_us", "max_us", "recovery_us",
		"rtx_mean", "rtx_max", "frames_per_acc", "promoted", "lost")
	for _, r := range rows {
		t.row(r.Scheme, r.Fault, r.Accesses, r.Failures, r.DegradedAccesses,
			fmt.Sprintf("%.1f", r.Latency.Mean), fmt.Sprintf("%.1f", r.Latency.P99),
			fmt.Sprintf("%.1f", r.Latency.Max), fmt.Sprintf("%.1f", r.RecoveryUS),
			fmt.Sprintf("%.2f", r.Retransmits.Mean), fmt.Sprintf("%.0f", r.Retransmits.Max),
			fmt.Sprintf("%.1f", r.FramesPerAccess), r.Promotions, r.Lost)
	}
	t.print(o.csv)
	return nil
}

func runTrace(o *options) error {
	reps, err := experiments.TraceBreakdown(o.seed)
	if err != nil {
		return err
	}
	for i, r := range reps {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s: cold access, hop-by-hop (measured RTT %.2fµs, root span %.2fµs, %d spans)\n",
			r.Scheme, r.MeasuredUS, r.RootUS, r.Spans)
		fmt.Print(r.Tree)
		fmt.Println()
		fmt.Print(r.Breakdown)
	}
	return nil
}

func runLoad(o *options) error {
	rep, err := experiments.LoadSweep(o.seed)
	if err != nil {
		return err
	}
	for _, ss := range rep.Schemes {
		t := newTable(fmt.Sprintf("E9 (%s): offered load vs goodput and tail latency", ss.Scheme),
			"offered_ops", "goodput_ops", "completed", "failed", "queued",
			"p50_us", "p99_us", "p999_us", "frames")
		for _, p := range ss.Points {
			t.row(fmt.Sprintf("%.0f", p.OfferedPerSec), fmt.Sprintf("%.0f", p.GoodputPerSec),
				p.Completed, p.Failed, p.Queued,
				fmt.Sprintf("%.1f", p.P50US), fmt.Sprintf("%.1f", p.P99US),
				fmt.Sprintf("%.1f", p.P999US), p.FramesSent)
		}
		t.print(o.csv)
		if !o.csv {
			if ss.Knee.Index >= 0 {
				fmt.Printf("   knee: %.0f ops/s offered (goodput %.0f, p99 %.1fµs) — %s\n",
					ss.Knee.OfferedPerSec, ss.Knee.GoodputPerSec, ss.Knee.P99US, ss.Knee.Reason)
			} else {
				fmt.Printf("   knee: %s\n", ss.Knee.Reason)
			}
		}
		fmt.Println()
	}
	return writeReport(o.out, &rep.ReportHeader, rep)
}

func runAblations(o *options) error {
	pf, err := experiments.AblationPrefetch(experiments.PrefetchConfig{Seed: o.seed})
	if err != nil {
		return err
	}
	t1 := newTable("A1: reachability prefetch during remote traversal",
		"prefetch", "chain", "total_us", "remote_acquires", "local_hits")
	for _, r := range pf {
		t1.row(r.Prefetch, r.ChainLen, r.TotalUS, r.RemoteAcquires, r.LocalHits)
	}
	t1.print(o.csv)
	fmt.Println()

	loss, err := experiments.AblationLoss(o.seed, 0, nil)
	if err != nil {
		return err
	}
	t2 := newTable("A2: lightweight reliable transport under loss",
		"loss_pct", "completion_us", "retransmits", "delivered")
	for _, r := range loss {
		t2.row(r.LossPct, r.CompletionUS, r.Retransmits, r.Delivered)
	}
	t2.print(o.csv)
	fmt.Println()

	hy, err := experiments.AblationHybrid(o.seed, 0)
	if err != nil {
		return err
	}
	t3 := newTable("A3: discovery under switch-table saturation",
		"scheme", "objects", "table_cap", "successes", "failures", "mean_us", "fallbacks")
	for _, r := range hy {
		t3.row(r.Scheme, r.Objects, r.TableCapacity, r.Successes, r.Failures, r.MeanUS, r.Fallbacks)
	}
	t3.print(o.csv)
	fmt.Println()

	cr, err := experiments.AblationCRDT(o.seed, 0)
	if err != nil {
		return err
	}
	t4 := newTable("A4: CRDT auto-merge during movement",
		"mode", "expected", "final", "lost")
	for _, r := range cr {
		t4.row(r.Mode, r.Expected, r.Final, r.Lost)
	}
	t4.print(o.csv)
	fmt.Println()

	sq, err := experiments.AblationNetSeq(o.seed, 0)
	if err != nil {
		return err
	}
	t5 := newTable("A5: sequencer offload to the programmable network (§5)",
		"mode", "ops", "mean_us", "p99_us", "unique_dense")
	for _, r := range sq {
		t5.row(r.Mode, r.Ops, r.MeanUS, r.P99US, r.UniqueDense)
	}
	t5.print(o.csv)
	fmt.Println()

	ov, err := experiments.AblationOverlay(o.seed, 0)
	if err != nil {
		return err
	}
	t6 := newTable("A6: hierarchical identifier overlay vs exact rules (§3.2)",
		"mode", "objects", "rules_per_sw", "install_failed", "successes", "failures", "mean_us")
	for _, r := range ov {
		t6.row(r.Mode, r.Objects, r.RulesPerSw, r.InstallFailed, r.Successes, r.Failures, r.MeanUS)
	}
	t6.print(o.csv)
	return nil
}

// runRaft runs E13: the replicated
// control plane swept over replica counts, writing BENCH_raft.json.
func runRaft(o *options) error {
	rep, err := experiments.RaftBench(o.seed)
	if err != nil {
		return err
	}
	t := newTable("E13: replicated control plane — election, commit latency, leader-kill availability",
		"replicas", "election_us", "commit_mean_us", "commit_p99_us", "reelect_mean_us",
		"sweep_ops", "failed", "avail_pct", "redirects", "elections", "committed", "lost")
	lost := 0
	for _, r := range rep.Rows {
		t.row(r.Replicas, fmt.Sprintf("%.1f", r.ElectionUS),
			fmt.Sprintf("%.1f", r.CommitMeanUS), fmt.Sprintf("%.1f", r.CommitP99US),
			fmt.Sprintf("%.1f", r.ReElectionMeanUS), r.SweepOps, r.SweepFailed,
			fmt.Sprintf("%.1f", r.AvailabilityPct), r.Redirects, r.Elections,
			r.Committed, r.Lost)
		if r.Replicas > 1 {
			lost += r.Lost
		}
	}
	t.print(o.csv)
	if err := writeReport(o.out, &rep.ReportHeader, rep); err != nil {
		return err
	}
	if lost > 0 {
		return fmt.Errorf("raft: %d acknowledged announce(s) lost across replicated rows", lost)
	}
	return nil
}

// runInc runs E14: each in-network
// computation feature measured as an on/off pair over the same seeded
// workload, writing BENCH_inc.json.
func runInc(o *options) error {
	rep, err := experiments.IncSweep(o.seed)
	if err != nil {
		return err
	}
	t := newTable("E14 (cache): Zipf reads with and without the in-switch object cache",
		"cache", "reads", "mean_us", "p50_us", "p99_us", "switch_hits", "hit_rate")
	for _, r := range rep.Cache {
		t.row(r.Enabled, r.Reads, fmt.Sprintf("%.1f", r.MeanUS), fmt.Sprintf("%.1f", r.P50US),
			fmt.Sprintf("%.1f", r.P99US), r.CacheHits, fmt.Sprintf("%.2f", r.HitRate))
	}
	t.print(o.csv)
	fmt.Println()
	t2 := newTable("E14 (mcast): invalidation rounds with and without multicast fan-out",
		"mcast", "sharers", "rounds", "home_inv_frames", "frames_saved", "replicated", "fallbacks")
	for _, r := range rep.Mcast {
		t2.row(r.Enabled, r.Sharers, r.Rounds, r.HomeInvFrames, r.FramesSaved,
			r.Replicated, r.Fallbacks)
	}
	t2.print(o.csv)
	fmt.Println()
	t3 := newTable("E14 (agg): the same rounds with and without in-network ack aggregation",
		"agg", "sharers", "rounds", "acks_at_home", "acks_coalesced", "agg_acks_sent", "agg_timeouts")
	for _, r := range rep.Agg {
		t3.row(r.Enabled, r.Sharers, r.Rounds, r.AcksAtHome, r.AcksCoalesced,
			r.AggAcksSent, r.AggTimeouts)
	}
	t3.print(o.csv)
	return writeReport(o.out, &rep.ReportHeader, rep)
}

// runHotpath runs E15: the batched-vs-unbatched knee sweep, writing
// BENCH_hotpath.json. A knee that did not move right exits nonzero.
func runHotpath(o *options) error {
	rep, err := experiments.Hotpath(o.seed)
	if err != nil {
		return err
	}
	t := newTable("E15: saturation knee, per-frame vs batched delivery (same link speed)",
		"delivery", "offered_ops", "completed", "failed", "p99_us")
	for _, side := range []struct {
		name string
		ss   workload.SchemeSweep
	}{{"per-frame", rep.Unbatched}, {"batched", rep.Batched}} {
		for _, p := range side.ss.Points {
			t.row(side.name, fmt.Sprintf("%.0f", p.OfferedPerSec), p.Completed,
				p.Failed, fmt.Sprintf("%.1f", p.P99US))
		}
	}
	t.print(o.csv)
	if !o.csv {
		fmt.Printf("   knee (per-frame): idx=%d %.0f ops/s — %s\n",
			rep.Unbatched.Knee.Index, rep.Unbatched.Knee.OfferedPerSec, rep.Unbatched.Knee.Reason)
		fmt.Printf("   knee (batched):   idx=%d %.0f ops/s — %s\n",
			rep.Batched.Knee.Index, rep.Batched.Knee.OfferedPerSec, rep.Batched.Knee.Reason)
		fmt.Printf("   knee moved right: %v\n", rep.KneeMovedRight)
	}
	if err := writeReport(o.out, &rep.ReportHeader, rep); err != nil {
		return err
	}
	if !rep.KneeMovedRight {
		return fmt.Errorf("hotpath: batched knee (idx %d) did not move right of per-frame knee (idx %d)",
			rep.Batched.Knee.Index, rep.Unbatched.Knee.Index)
	}
	return nil
}

// runCheck runs E10: explore every scenario (or one), or replay the
// exact schedule a violation report printed.
func runCheck(o *options) error {
	if o.schedule != "" {
		if o.scenario == "" {
			return fmt.Errorf("check: -schedule requires -scenario")
		}
		rep, err := experiments.CheckReplay(o.scenario, o.seed, o.schedule, o.buggy)
		if err != nil {
			return err
		}
		fmt.Print(rep)
		if !rep.Clean() {
			return fmt.Errorf("check: invariant violation under %q", o.schedule)
		}
		return nil
	}
	cfg := experiments.CheckConfig{Seed: o.seed, MaxRuns: o.runs, Buggy: o.buggy}
	if o.scenario != "" {
		cfg.Scenarios = []string{o.scenario}
	}
	rows, err := experiments.InvariantCheck(cfg)
	if err != nil {
		return err
	}
	t := newTable("E10: protocol invariant checker — bounded schedule exploration",
		"scenario", "runs", "frames", "verdict", "schedule", "violations")
	dirty := 0
	for _, r := range rows {
		verdict := "clean"
		if !r.Clean {
			verdict = "VIOLATION"
			dirty++
		}
		t.row(r.Scenario, r.Runs, r.Frames, verdict, r.Schedule, r.Violations)
	}
	t.print(o.csv)
	for _, r := range rows {
		if !r.Clean {
			fmt.Println()
			fmt.Print(r.Report)
		}
	}
	if dirty > 0 {
		return fmt.Errorf("check: %d scenario(s) violated protocol invariants", dirty)
	}
	return nil
}
