package experiments

import (
	"fmt"

	"repro/internal/check"
)

// E10, the protocol invariant-checker sweep: each scenario is explored
// under bounded delivery perturbation (targeted drop, duplicate,
// reorder) and every run is watched by the invariant checker. The rows
// are the named scenarios, then the cells generated from -seed (see
// check.Cells). A clean sweep is the experiment's pass criterion. The
// checker's self-test is scripts/mutants.sh: each kept mutant of the
// protocol must make this command, or a named test, fail.

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
		rep, err := checkReplay(o.Scenario, o.Seed, o.Schedule)
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
	rows, err := invariantCheck(o.Seed, scenarios, o.Runs)
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

// invariantCheck explores each named scenario or cell (E10's rows at
// seed when none) in at most maxRuns executions (the explorer's own 200
// when 0). Violations are rows, not errors.
func invariantCheck(seed int64, scenarios []string, maxRuns int) ([]checkRow, error) {
	if scenarios == nil {
		for _, sc := range check.Scenarios(seed) {
			scenarios = append(scenarios, sc.Name)
		}
	}
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

// checkReplay re-executes one recorded counterexample: the scenario at
// the seed under the exact schedule a prior exploration printed.
func checkReplay(scenario string, seed int64, schedule string) (*check.Report, error) {
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
