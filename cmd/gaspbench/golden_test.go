package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// goldenCases are the command lines TestGoldenOutput pins, at the
// default seed 42. `all -smoke` covers every command marked *, E12 on
// its CI grid; the published E12 grid (9 s) is left to a manual diff.
// A case with legacyWord runs gaspbench built with the legacy
// reassembly mutant.
var goldenCases = [][]string{
	{"all", "-smoke"},
	{"all", "-smoke", "-csv"},
	{"trace"},
	{"check"},
	{"check", "-csv"},
	{"check", legacyWord, "-scenario", "fig2", "-seed", "7"},
	{"raft"},
	{"raft", "-csv"},
	{"hotpath"},
	{"hotpath", "-csv"},
}

// legacyWord is no flag of gaspbench. It names the case that runs the
// command without it, built with scripts/mutants/05-legacy-reassembly.patch:
// the reassembly accounting the -buggy flag used to switch on, which
// `check` must catch. The case keeps its name and golden from then.
const legacyWord = "-buggy"

// wallColumns are the table columns that time the host CPU: the
// serialization table's timings and what is derived from them, and
// E12's sharder lookup cost. Everything else is virtual time.
var wallColumns = []string{"deser_us", "adopt_us", "infer_us",
	"loadfrac_baseline", "loadfrac_ours", "speedup", "lookup_ns"}

// wallFields are the report fields that read the wall clock.
var wallFields = regexp.MustCompile(`("generated_at": |"sharder_lookup_ns_per_op": )("[^"]*"|[-+.0-9eE]+)`)

// TestGoldenOutput runs each goldenCases line in-process (the legacy
// case as the mutant's binary), in a fresh directory, and compares its exit code, stdout and every report it
// wrote with testdata/<case>.golden, wall-clock fields masked. Run
// with -update to rewrite the goldens after a deliberate change.
func TestGoldenOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("the published sizes under the race detector; the experiments' own tests cover the code")
	}
	for _, args := range goldenCases {
		name := strings.Join(args, "_")
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			golden, err := filepath.Abs(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			runner, runArgs := gaspbench, args
			if i := slices.Index(args, legacyWord); i >= 0 {
				runner = legacyGaspbench(t)
				runArgs = slices.Delete(slices.Clone(args), i, i+1)
			}
			t.Chdir(dir)
			stdout, code := runner(t, runArgs)
			var got strings.Builder
			fmt.Fprintf(&got, "$ gaspbench %s\nexit %d\n--- stdout\n%s", strings.Join(args, " "), code,
				maskColumns(stdout, strings.Contains(name, "-csv")))
			reports, err := filepath.Glob("BENCH_*.json")
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(reports)
			for _, r := range reports {
				body, err := os.ReadFile(r)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "--- %s\n%s", r, wallFields.ReplaceAll(body, []byte("$1*")))
			}
			if *update {
				if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("output differs from %s (rerun with -update after a deliberate change):\n%s",
					golden, firstDiff(string(want), got.String()))
			}
		})
	}
}

// maskColumns replaces the cells of wallColumns with "*" in every
// table that has one, and re-joins that table's header and rows with
// single separators, since the plain layout pads to the widest cell.
func maskColumns(out string, csv bool) string {
	split := strings.Fields
	sep := " "
	if csv {
		split = func(s string) []string { return strings.Split(s, ",") }
		sep = ","
	}
	lines := strings.Split(out, "\n")
	var masked []int // indices of the current table's wall columns
	for i, l := range lines {
		cells := split(l)
		if idx := wallIndices(cells); idx != nil {
			masked = idx
		} else if masked == nil {
			continue
		} else if l == "" || strings.HasPrefix(l, "#") || strings.HasPrefix(l, "=") || strings.HasPrefix(l, " ") {
			masked = nil
			continue
		} else {
			for _, j := range masked {
				if j < len(cells) {
					cells[j] = "*"
				}
			}
		}
		lines[i] = strings.Join(cells, sep)
	}
	return strings.Join(lines, "\n")
}

// wallIndices returns where wallColumns sit in a header line, or nil.
func wallIndices(header []string) []int {
	var idx []int
	for j, h := range header {
		if slices.Contains(wallColumns, h) {
			idx = append(idx, j)
		}
	}
	return idx
}

// firstDiff shows the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\nwant: %q\ngot:  %q", i+1, wl, gl)
		}
	}
	return "(equal lines, different length)"
}

// gaspbench runs one command line the way main does and returns its
// stdout and exit code.
func gaspbench(t *testing.T, args []string) (string, int) {
	t.Helper()
	var stdout strings.Builder
	code := run(args, &stdout, io.Discard)
	return stdout.String(), code
}

// legacyGaspbench builds gaspbench in dir with the legacy reassembly
// mutant, through scripts/mutants.sh's overlay, and returns a runner
// like gaspbench that execs it in the current directory. Skipped
// under -short: the build and the script's own oracle take seconds.
func legacyGaspbench(t *testing.T) func(*testing.T, []string) (string, int) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds gaspbench with the legacy reassembly mutant, a few seconds")
	}
	const mutant = "05-legacy-reassembly"
	dir := t.TempDir()
	keep := filepath.Join(dir, "mutants")
	if out, err := exec.Command("bash", "../../scripts/mutants.sh", "-keep", keep, mutant).CombinedOutput(); err != nil {
		t.Fatalf("scripts/mutants.sh %s: %v\n%s", mutant, err, out)
	}
	bin := filepath.Join(dir, "gaspbench-"+mutant)
	overlay := filepath.Join(keep, mutant, "overlay.json")
	if out, err := exec.Command("go", "build", "-overlay", overlay, "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build -overlay: %v\n%s", err, out)
	}
	return func(t *testing.T, args []string) (string, int) {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return string(out), exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return string(out), 0
	}
}
