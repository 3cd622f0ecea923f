package repro_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The mutant corpus (scripts/mutants) keeps every bug this repository
// fixed as a patch against today's tree, and scripts/mutants.sh checks
// that each one is still caught. These tests keep the corpus honest
// from tier 1: every patch still applies, and the first patch, the
// reassembly accounting the invariant checker was built to catch, is
// still caught by `gaspbench check` exactly as EXPERIMENTS.md shows.

const legacyMutant = "05-legacy-reassembly"

// tool returns the path of a command the corpus needs, skipping the
// test when the host lacks it.
func tool(t *testing.T, name string) string {
	t.Helper()
	path, err := exec.LookPath(name)
	if err != nil {
		t.Skipf("%s not found: %v", name, err)
	}
	return path
}

// row returns the cells after key of the first line of a printed table
// whose first cell is key, one space apart.
func row(table, key string) string {
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == key {
			return strings.Join(f[1:], " ")
		}
	}
	return ""
}

// TestMutantPatchesApply: every patch in the corpus applies to the
// tree, so a change that moves mutated code must refresh its patch.
func TestMutantPatchesApply(t *testing.T) {
	git := tool(t, "git")
	patches, err := filepath.Glob("scripts/mutants/*.patch")
	if err != nil || len(patches) == 0 {
		t.Fatalf("no patches in scripts/mutants: %v", err)
	}
	for _, p := range patches {
		if out, err := exec.Command(git, "apply", "--check", p).CombinedOutput(); err != nil {
			t.Errorf("%s no longer applies; refresh it against the tree: %v\n%s", p, err, out)
		}
	}
}

// TestLegacyReassemblyMutant runs scripts/mutants.sh on the first
// patch and checks what `gaspbench check` prints under it: the seed-42
// fig2 row is the one E10 has always published for its self-test, and
// the seed-7 report's replay command reproduces the violation under
// the mutant and runs clean without it. The seed-7 report itself is
// cmd/gaspbench's golden case `check -buggy -scenario fig2 -seed 7`.
func TestLegacyReassemblyMutant(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the mutant and runs the checker, a few seconds")
	}
	bash, goCmd := tool(t, "bash"), tool(t, "go")
	tool(t, "git")
	keep := t.TempDir()
	out, err := exec.Command(bash, "scripts/mutants.sh", "-keep", keep, legacyMutant).CombinedOutput()
	if err != nil {
		t.Fatalf("scripts/mutants.sh %s: %v\n%s", legacyMutant, err, out)
	}
	if killer := row(string(out), legacyMutant); killer != "check -scenario fig2 -seed 7" {
		t.Fatalf("%s killed by %q, want its check oracle:\n%s", legacyMutant, killer, out)
	}

	dir := filepath.Join(keep, legacyMutant)
	report, err := os.ReadFile(filepath.Join(dir, "killer.out"))
	if err != nil {
		t.Fatal(err)
	}

	build := func(name string, flags ...string) string {
		bin := filepath.Join(keep, name)
		args := append(append([]string{"build"}, flags...), "-o", bin, "./cmd/gaspbench")
		if out, err := exec.Command(goCmd, args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return bin
	}
	mutant := build("mutant", "-overlay", filepath.Join(dir, "overlay.json"))
	fixed := build("fixed")
	check := func(bin string, args ...string) (string, int) {
		out, err := exec.Command(bin, append([]string{"check"}, args...)...).Output()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return string(out), exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return string(out), 0
	}

	// The explorer's search order: at seed 42, fig2 violates after 44
	// runs, shrunk to drop:8.
	seed42, _ := check(mutant, "-scenario", "fig2")
	if got, want := row(seed42, "fig2"), "44 14 VIOLATION drop:8 1"; got != want {
		t.Errorf("seed-42 fig2 row %q, want %q:\n%s", got, want, seed42)
	}

	// The replay line names the counterexample exactly.
	_, replay, ok := strings.Cut(string(report), "replay:   gaspbench check ")
	replay, _, _ = strings.Cut(replay, "\n")
	if !ok || replay == "" {
		t.Fatalf("no replay command in the report:\n%s", report)
	}
	args := strings.Fields(strings.ReplaceAll(replay, `"`, ""))
	if out, code := check(mutant, args...); code != 1 || !strings.Contains(out, "VIOLATION") {
		t.Errorf("replay under the mutant: exit %d, want 1 and a violation:\n%s", code, out)
	}
	if out, code := check(fixed, args...); code != 0 || !strings.Contains(out, "clean") {
		t.Errorf("replay on the tree: exit %d, want 0 and clean:\n%s", code, out)
	}
}
