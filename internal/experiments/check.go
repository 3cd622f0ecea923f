package experiments

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/memproto"
)

// CheckConfig tunes E10, the protocol invariant-checker sweep: each
// scenario is explored under bounded delivery perturbation (targeted
// drop, duplicate, reorder) and every run is watched by the invariant
// checker. A clean sweep is the experiment's pass criterion.
type CheckConfig struct {
	// Seed drives every scenario build (violations replay from it).
	Seed int64
	// Scenarios limits the sweep by name (default: all built-ins).
	Scenarios []string
	// MaxRuns bounds scenario executions per exploration (default:
	// the explorer's own 200).
	MaxRuns int
	// Buggy restores the legacy fragment-reassembly accounting
	// (duplicate-byte completion, silent version mixing) for the
	// sweep — the checker's self-test, and the source of the sample
	// violation report in EXPERIMENTS.md.
	Buggy bool
}

// CheckRow is one scenario's exploration outcome.
type CheckRow struct {
	Scenario string
	// Runs is how many perturbed executions the search consumed.
	Runs int
	// Frames is how many logical frames the baseline indexed.
	Frames int
	// Clean is the verdict; when false Schedule and Report name the
	// minimal counterexample.
	Clean      bool
	Schedule   string
	Violations int
	// Report is the explorer's full report (replay command, violation
	// list, causal trace of the violating operation).
	Report *check.Report
}

// InvariantCheck runs E10: explore each configured scenario and
// report the verdicts. Violations are data, not errors — the caller
// decides whether a dirty row fails the build.
func InvariantCheck(cfg CheckConfig) ([]CheckRow, error) {
	if cfg.Scenarios == nil {
		for _, sc := range check.Scenarios() {
			cfg.Scenarios = append(cfg.Scenarios, sc.Name)
		}
	}
	defer legacyReassembly(cfg.Buggy)()
	rows := make([]CheckRow, 0, len(cfg.Scenarios))
	for _, name := range cfg.Scenarios {
		sc, ok := check.ScenarioByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown check scenario %q", name)
		}
		rep, err := check.Explore(sc, check.ExploreConfig{Seed: cfg.Seed, MaxRuns: cfg.MaxRuns})
		if err != nil {
			return nil, fmt.Errorf("experiments: exploring %s: %w", name, err)
		}
		rows = append(rows, CheckRow{
			Scenario:   sc.Name,
			Runs:       rep.Runs,
			Frames:     rep.Frames,
			Clean:      rep.Clean(),
			Schedule:   rep.Schedule.String(),
			Violations: len(rep.Violations),
			Report:     rep,
		})
	}
	return rows, nil
}

// legacyReassembly switches the reassembler's legacy accounting
// (duplicate-byte completion, silent version mixing) to buggy and
// returns the call that restores it.
func legacyReassembly(buggy bool) (restore func()) {
	prev := memproto.SetLegacyAccounting(buggy)
	return func() { memproto.SetLegacyAccounting(prev) }
}

// CheckReplay re-executes one recorded counterexample: the scenario at
// the seed under the exact schedule a prior exploration printed, with
// the legacy reassembly bugs restored when buggy (as CheckConfig.Buggy).
func CheckReplay(scenario string, seed int64, schedule string, buggy bool) (*check.Report, error) {
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
