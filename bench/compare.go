package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// benchmarkFile is BENCHMARK.json as far as compare needs it.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// BENCHMARK.json carries one bound per metric, which the noisiest
// workload sets: the wall-clock real_rw_closed. Compare holds a simulated
// workload to these where they are tighter. A virtual-clock number
// repeats exactly for a seed, so 2% of it is a change of behaviour, never
// noise; simulator speed at nominal host speed spread 3-12% over ten
// seeds, and its medians moved by up to 11% between two sweeps of one
// commit.
const (
	virtualBound = 0.02
	simWallBound = 0.15
)

// boundFor is the share by which a workload's metric may worsen.
func boundFor(s *spec, metric string, clock string, declared float64) float64 {
	switch {
	case clock == "virtual":
		return min(declared, virtualBound)
	case s.clock() == "virtual" && metric == "wall_ops_s":
		return min(declared, simWallBound)
	}
	return declared
}

func readJSON(path string, into any) error {
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, into)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareMain implements "bench compare A.json B.json": one row per
// (workload, end-to-end metric) with both medians, how much worse B is
// as a share of A, the bound and a verdict. A row whose run-to-run
// spread (on either side) exceeds the bound is unresolved, not
// unchanged; but when A and B ran the same seeds at the same length, a
// virtual-clock row's spread is the seeds' and not noise, and the
// medians compare exactly. Exit status 1 on any regressed row.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	decl := fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration holding the bounds")
	fs.Parse(args) // ExitOnError: does not return on a bad flag
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	var bm benchmarkFile
	var a, b report
	for _, err := range []error{readJSON(*decl, &bm), readJSON(fs.Arg(0), &a), readJSON(fs.Arg(1), &b)} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
	}
	sameInputs := a.Seed == b.Seed && a.Seconds == b.Seconds && runsOf(&a) == runsOf(&b)
	byName := func(r *report) map[string]workloadReport {
		m := map[string]workloadReport{}
		for _, w := range r.Workloads {
			m[w.Name] = w
		}
		return m
	}
	wa, wb := byName(&a), byName(&b)
	fmt.Printf("A %s (%s, %d runs)  B %s (%s, %d runs)\n", fs.Arg(0), a.Commit, runsOf(&a), fs.Arg(1), b.Commit, runsOf(&b))
	fmt.Printf("%-17s %-16s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	regressed := 0
	for _, s := range specs {
		for _, m := range bm.EndToEnd {
			qa, okA := wa[s.name].Summary[m.Name]
			qb, okB := wb[s.name].Summary[m.Name]
			if !okA || !okB {
				continue
			}
			worse := (qb.Median - qa.Median) / qa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			bound := boundFor(s, m.Name, qa.Clock, m.Bound)
			spread := max(qa.Spread, qb.Spread)
			verdict := "ok"
			switch {
			case spread > bound && !(sameInputs && qa.Clock == "virtual"):
				verdict = "unresolved"
			case worse > bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Printf("%-17s %-16s %14.6g %14.6g %+7.2f%% %7.2f%% %6.1f%%  %s\n",
				s.name, m.Name, qa.Median, qb.Median, 100*worse, 100*spread, 100*bound, verdict)
		}
	}
	if regressed > 0 {
		return 1
	}
	return 0
}

func runsOf(r *report) int {
	n := 0
	for _, w := range r.Workloads {
		n = max(n, len(w.Runs))
	}
	return n
}
