package main

import (
	"os"
	"strings"
	"testing"
)

func TestCommandTable(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range commands {
		if seen[c.name] {
			t.Errorf("command %q appears twice", c.name)
		}
		seen[c.name] = true
		if c.summary == "" || c.run == nil {
			t.Errorf("command %q lacks a summary or a run function", c.name)
		}
	}
	if all := commands[len(commands)-1]; all.name != "all" || all.inAll {
		t.Errorf("last row = %q (inAll=%v), want all outside its own membership", all.name, all.inAll)
	}
}

func TestOneGrammar(t *testing.T) {
	c, o, err := parse([]string{"load"})
	if err != nil || c.name != "load" || o.out != "BENCH_load.json" || o.accesses != 2000 {
		t.Errorf("load: command %v options %+v err %v", c, o, err)
	}
	c, o, err = parse([]string{"scale", "-smoke", "-out", "X", "-seed", "7"})
	if err != nil || c.name != "scale" || !o.smoke || o.out != "X" || o.seed != 7 {
		t.Errorf("scale -smoke -out X -seed 7: command %v options %+v err %v", c, o, err)
	}
	if _, o, err = parse([]string{"all", "-smoke"}); err != nil || !o.smoke {
		t.Errorf("all -smoke: options %+v err %v", o, err)
	}
	if _, o, err = parse([]string{"fig2", "-accesses", "50"}); err != nil || o.accesses != 50 {
		t.Errorf("fig2 -accesses 50: options %+v err %v", o, err)
	}
	if _, o, err = parse([]string{"check", "-scenario", "fig2", "-schedule", "drop:8"}); err != nil || o.schedule != "drop:8" {
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
