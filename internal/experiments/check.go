package experiments

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/memproto"
)

// E10, the protocol invariant-checker sweep: each scenario is explored
// under bounded delivery perturbation (targeted drop, duplicate,
// reorder) and every run is watched by the invariant checker. A clean
// sweep is the experiment's pass criterion. With -buggy the sweep runs
// on the legacy fragment-reassembly accounting (duplicate-byte
// completion, silent version mixing): the checker's self-test, and the
// source of the sample violation report in EXPERIMENTS.md.

// checkRow is one scenario's exploration outcome; when not clean, its
// report names the minimal counterexample, the replay command, the
// violations and the causal trace of the violating operation.
type checkRow struct{ check.Report }

func (r checkRow) cells() []any {
	verdict := "clean"
	if !r.Clean() {
		verdict = "VIOLATION"
	}
	return []any{"scenario", r.Scenario, "runs", r.Runs, "frames", r.Frames, "verdict", verdict,
		"schedule", r.Schedule.String(), "violations", len(r.Violations)}
}

// runCheck runs E10: it explores every scenario (or -scenario), or
// replays the exact schedule a violation report printed, and fails on
// any violation.
func runCheck(o Options, out *Output) error {
	if o.Schedule != "" {
		if o.Scenario == "" {
			return fmt.Errorf("check: -schedule requires -scenario")
		}
		rep, err := checkReplay(o.Scenario, o.Seed, o.Schedule, o.Buggy)
		if err != nil {
			return err
		}
		fmt.Fprint(out, rep)
		if !rep.Clean() {
			return fmt.Errorf("check: invariant violation under %q", o.Schedule)
		}
		return nil
	}
	var scenarios []string
	if o.Scenario != "" {
		scenarios = []string{o.Scenario}
	}
	rows, err := invariantCheck(o.Seed, scenarios, o.Runs, o.Buggy)
	if err != nil {
		return err
	}
	table(out, "E10: protocol invariant checker — bounded schedule exploration", rows, nil)
	dirty := 0
	for _, r := range rows {
		if !r.Clean() {
			dirty++
			fmt.Fprintf(out, "\n%s", &r.Report)
		}
	}
	if dirty > 0 {
		return fmt.Errorf("check: %d scenario(s) violated protocol invariants", dirty)
	}
	return nil
}

// invariantCheck explores each named scenario (every built-in when
// none) in at most maxRuns executions (the explorer's own 200 when 0).
// Violations are rows, not errors.
func invariantCheck(seed int64, scenarios []string, maxRuns int, buggy bool) ([]checkRow, error) {
	if scenarios == nil {
		for _, sc := range check.Scenarios() {
			scenarios = append(scenarios, sc.Name)
		}
	}
	defer legacyReassembly(buggy)()
	return sweep(scenarios, func(name string) (checkRow, error) {
		sc, ok := check.ScenarioByName(name)
		if !ok {
			return checkRow{}, fmt.Errorf("unknown check scenario")
		}
		rep, err := check.Explore(sc, check.ExploreConfig{Seed: seed, MaxRuns: maxRuns})
		if err != nil {
			return checkRow{}, err
		}
		return checkRow{*rep}, nil
	})
}

// legacyReassembly switches the reassembler's legacy accounting
// (duplicate-byte completion, silent version mixing) to buggy and
// returns the call that restores it.
func legacyReassembly(buggy bool) (restore func()) {
	prev := memproto.SetLegacyAccounting(buggy)
	return func() { memproto.SetLegacyAccounting(prev) }
}

// checkReplay re-executes one recorded counterexample: the scenario at
// the seed under the exact schedule a prior exploration printed, with
// the legacy reassembly bugs restored when buggy.
func checkReplay(scenario string, seed int64, schedule string, buggy bool) (*check.Report, error) {
	defer legacyReassembly(buggy)()
	sc, ok := check.ScenarioByName(scenario)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown check scenario %q", scenario)
	}
	sched, err := check.ParseSchedule(schedule)
	if err != nil {
		return nil, err
	}
	return check.Replay(sc, seed, sched)
}
