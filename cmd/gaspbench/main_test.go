package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestCommandTable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments.Experiments {
		if seen[e.Name] {
			t.Errorf("command %q appears twice", e.Name)
		}
		seen[e.Name] = true
		if e.Summary == "" || e.Run == nil {
			t.Errorf("command %q lacks a summary or a run function", e.Name)
		}
	}
	all := experiments.Experiments[len(experiments.Experiments)-1]
	if all.Name != "all" || all.InAll || all.Report != "" {
		t.Errorf("last row = %q (InAll=%v, Report=%q), want all outside its own membership, writing no report of its own",
			all.Name, all.InAll, all.Report)
	}
}

func TestOneGrammar(t *testing.T) {
	e, o, err := parse([]string{"load"})
	if err != nil || e.Name != "load" || o.Out != "BENCH_load.json" || o.Seed != 42 {
		t.Errorf("load: command %v options %+v err %v", e, o, err)
	}
	e, o, err = parse([]string{"scale", "-smoke", "-out", "X", "-seed", "7"})
	if err != nil || e.Name != "scale" || !o.Smoke || o.Out != "X" || o.Seed != 7 {
		t.Errorf("scale -smoke -out X -seed 7: command %v options %+v err %v", e, o, err)
	}
	if _, o, err = parse([]string{"all", "-smoke", "-accesses", "50"}); err != nil || !o.Smoke || o.Accesses != 50 {
		t.Errorf("all -smoke -accesses 50: options %+v err %v", o, err)
	}
	if _, o, err = parse([]string{"fig2", "-accesses", "50"}); err != nil || o.Accesses != 50 {
		t.Errorf("fig2 -accesses 50: options %+v err %v", o, err)
	}
	if _, o, err = parse([]string{"check", "-scenario", "fig2", "-schedule", "drop:8"}); err != nil || o.Schedule != "drop:8" {
		t.Errorf("check replay line: options %+v err %v", o, err)
	}
	for _, bad := range [][]string{
		nil,
		{"-smoke", "scale"},             // flags before the command word
		{"load", "-smoke"},              // scale's flag only: load has one size
		{"load", "extra"},               // stray argument
		{"fig2", "-out", "x.json"},      // fig2 writes no report
		{"all", "-out", "x.json"},       // all writes each report at its default
		{"fig2", "-backend", "realnet"}, // gone: real_rw_closed and realtest's TestLoopbackE1 measure real sockets
		{"realbench"},                   // E11 retired with its -cpuprofile flag
		{"nosuch"},
		// Each command takes only the flags it reads.
		{"load", "-accesses", "5"},    // only fig2 and fig3 read it
		{"hotpath", "-accesses", "1"}, // E15's ladder has one size
		{"capacity", "-seed", "9"},    // a closed-form model and a seeded table fill
		{"trace", "-csv"},             // span trees have no CSV form
	} {
		if _, _, err := parse(bad); err == nil {
			t.Errorf("parse(%q) succeeded, want a usage error", bad)
		}
	}
}

// TestHeaderMatchesUsage pins main.go's doc comment to the usage text
// the command table generates.
func TestHeaderMatchesUsage(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, l := range strings.Split(strings.TrimRight(usageText(), "\n"), "\n") {
		if l == "" {
			want.WriteString("//\n")
		} else {
			want.WriteString("//\t" + l + "\n")
		}
	}
	want.WriteString("package main\n")
	if !strings.Contains(string(src), want.String()) {
		t.Errorf("main.go's header comment is out of date; it must end with:\n%s", want.String())
	}
}
