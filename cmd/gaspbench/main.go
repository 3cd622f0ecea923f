// Command gaspbench regenerates every table and figure in the paper's
// evaluation: one command per experiment, flags after the command word.
// The usage text below is generated from internal/experiments' table
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
//	flags, after the command word, each with [the commands that take it]:
//	  -accesses N        N accesses per sweep point of Figures 2 and 3 (default 2000) [fig2 fig3 all]
//	  -csv               machine-readable output for plotting [every command but trace]
//	  -out FILE          write the report to FILE [scale load raft inc hotpath]
//	  -runs N            at most N perturbed executions per scenario [check]
//	  -scenario NAME     explore only scenario NAME (default: all) [check]
//	  -schedule S        replay exactly schedule S (requires -scenario) [check]
//	  -seed N            random seed N (default 42) [every command but capacity]
//	  -smoke             E12 on its CI grid (up to 10^4 objects, 4 and 8 nodes) instead of the published one [scale all]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

// newFlagSet is the one flag grammar: the flags e reads, after the
// command word, and -out when e writes a report.
func newFlagSet(e *experiments.Experiment, o *experiments.Options) *flag.FlagSet {
	fs := flag.NewFlagSet("gaspbench "+e.Name, flag.ContinueOnError)
	if e.Flags&experiments.FlagSeed != 0 {
		fs.Int64Var(&o.Seed, "seed", 42, "random seed `N` (default 42)")
	}
	if e.Flags&experiments.FlagCSV != 0 {
		fs.BoolVar(&o.CSV, "csv", false, "machine-readable output for plotting")
	}
	if e.Flags&experiments.FlagAccesses != 0 {
		fs.IntVar(&o.Accesses, "accesses", 2000, "`N` accesses per sweep point of Figures 2 and 3 (default 2000)")
	}
	if e.Flags&experiments.FlagSmoke != 0 {
		fs.BoolVar(&o.Smoke, "smoke", false, "E12 on its CI grid (up to 10^4 objects, 4 and 8 nodes) instead of the published one")
	}
	if e.Flags&experiments.FlagCheck != 0 {
		fs.StringVar(&o.Scenario, "scenario", "", "explore only scenario `NAME` (default: all)")
		fs.StringVar(&o.Schedule, "schedule", "", "replay exactly schedule `S` (requires -scenario)")
		fs.IntVar(&o.Runs, "runs", 0, "at most `N` perturbed executions per scenario")
	}
	if e.Report != "" {
		fs.StringVar(&o.Out, "out", e.Report, "write the report to `FILE`")
	}
	return fs
}

// usageText is the whole usage message, generated from the table.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: gaspbench <command> [flags]\n\ncommands (* = part of `all`; -> = default report path):\n")
	union := flag.NewFlagSet("", flag.ContinueOnError)
	var sets []*flag.FlagSet
	for i := range experiments.Experiments {
		e := &experiments.Experiments[i]
		mark := " "
		if e.InAll {
			mark = "*"
		}
		fmt.Fprintf(&b, "%s %-14s %s", mark, e.Name, e.Summary)
		if e.Report != "" {
			fmt.Fprintf(&b, " -> %s", e.Report)
		}
		b.WriteString("\n")
		fs := newFlagSet(e, &experiments.Options{})
		fs.VisitAll(func(f *flag.Flag) {
			if union.Lookup(f.Name) == nil {
				union.Var(f.Value, f.Name, f.Usage)
			}
		})
		sets = append(sets, fs)
	}
	b.WriteString("\nflags, after the command word, each with [the commands that take it]:\n")
	union.VisitAll(func(f *flag.Flag) {
		var with, without []string
		for i, fs := range sets {
			if name := experiments.Experiments[i].Name; fs.Lookup(f.Name) != nil {
				with = append(with, name)
			} else {
				without = append(without, name)
			}
		}
		who := strings.Join(with, " ")
		if len(without) < len(with) {
			who = "every command but " + strings.Join(without, " ")
		}
		arg, usage := flag.UnquoteUsage(f)
		fmt.Fprintf(&b, "  %-18s %s [%s]\n", strings.TrimSpace("-"+f.Name+" "+arg), usage, who)
	})
	return b.String()
}

// parse resolves `<command> [flags]` into a table entry and its
// options. Every error is a usage error (run prints the usage text and
// exits 2); flag.ErrHelp is the one that needs no message of its own.
func parse(args []string) (*experiments.Experiment, *experiments.Options, error) {
	if len(args) == 0 {
		return nil, nil, flag.ErrHelp
	}
	i := slices.IndexFunc(experiments.Experiments, func(e experiments.Experiment) bool { return e.Name == args[0] })
	if i < 0 {
		return nil, nil, fmt.Errorf("unknown command %q", args[0])
	}
	e, o := &experiments.Experiments[i], &experiments.Options{}
	fs := newFlagSet(e, o)
	fs.SetOutput(io.Discard) // run reports the error and the usage text once
	if err := fs.Parse(args[1:]); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", e.Name, err)
	}
	if fs.NArg() != 0 {
		return nil, nil, fmt.Errorf("%s: unexpected argument %q (flags follow the command word)", e.Name, fs.Arg(0))
	}
	return e, o, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main over explicit streams, returning the exit code: 2 for a
// usage error, 1 for a failed run or pass criterion.
func run(args []string, stdout, stderr io.Writer) int {
	e, o, err := parse(args)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "gaspbench:", err)
		}
		fmt.Fprint(stderr, usageText())
		return 2
	}
	if err := experiments.Run(e, *o, stdout, stamp); err != nil {
		fmt.Fprintln(stderr, "gaspbench:", err)
		return 1
	}
	return 0
}

// stamp is a report's generated_at, taken when the report is written,
// after its deterministic body is complete.
func stamp() string { return time.Now().UTC().Format(time.RFC3339) }
