// Command bench is the repository's benchmark: six workloads on two
// clocks, end-to-end metrics from an untraced pass, per-layer metrics
// from a traced pass and an isolated layer harness, and output checks
// that fail the command. See README.md in this directory.
//
//	go run ./bench -workload sim_read_hot -seed 42 -seconds 10 -trace 0
//	go run ./bench -runs 10 -trace 0 -out bench/out/a.json
//	go run ./bench compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/trace"
)

// runResult is one (workload, seed, pass) execution.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	WallS     float64                `json:"wall_s"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Checks    []string               `json:"check_failed,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// contractLine is the last line of a single run: exactly these keys.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted uint64                    `json:"attempted"`
	Failed    uint64                    `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 42, "workload seed; run i of -runs uses seed+i")
	seconds := flag.Float64("seconds", 10, "length of one measured phase; the work done is a fixed function of it")
	traceMode := flag.String("trace", "both", "0: untraced pass (end-to-end metrics); 1: traced pass and layer harness (per-layer metrics); both")
	runs := flag.Int("runs", 1, "runs per workload, each with the next seed")
	outPath := flag.String("out", "", "write every run and its summary to this JSON file")
	flag.StringVar(&traceFile, "tracefile", traceFile, "where a traced run writes its spans as Chrome trace events; empty for nowhere")
	flag.Parse()

	var chosen []*spec
	for _, s := range specs {
		if *workload == "all" || *workload == s.name {
			chosen = append(chosen, s)
		}
	}
	var modes []int
	switch *traceMode {
	case "0":
		modes = []int{0}
	case "1":
		modes = []int{1}
	case "both":
		modes = []int{0, 1}
	}
	if len(chosen) == 0 || len(modes) == 0 || flag.NArg() > 0 || *runs < 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q, trace mode %q or stray arguments %q\n", *workload, *traceMode, flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	var results []*runResult
	ok := true
	for _, s := range chosen {
		for i := 0; i < *runs; i++ {
			for _, mode := range modes {
				r, err := runOnce(s, *seed+int64(i), *seconds, mode)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					os.Exit(1)
				}
				r.print()
				results = append(results, r)
				ok = ok && r.Correct
			}
		}
	}
	if *outPath != "" {
		if err := writeReport(*outPath, *seed, *seconds, results); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if len(results) == 1 {
		r := results[0]
		line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
			Metrics: make(map[string]contractMetric, len(r.Metrics))}
		for name, m := range r.Metrics {
			line.Metrics[name] = contractMetric{m.Value, m.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: result line: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
	if !ok {
		os.Exit(1)
	}
}

// setUps is how many times an untraced run sets its workload up: one
// set-up is 40-120 ms and varies by a third from one to the next, the
// median of nine by a few percent.
const setUps = 9

// runOnce executes one pass of one workload and checks its outputs.
func runOnce(s *spec, seed int64, seconds float64, mode int) (*runResult, error) {
	t0 := time.Now()
	r := &runResult{Workload: s.name, Seed: seed, Trace: mode}
	var defs []metricDef
	if mode == 0 {
		out, err := execute(s, seed, seconds, setUps, trace.Config{}, 0)
		if err != nil {
			return nil, err
		}
		r.Metrics, r.Checks, defs = out.endToEnd(), out.check(), endToEnd
		r.Attempted, r.Failed = out.totals()
	} else {
		tp, err := tracedRun(s, seed, seconds, harnessIters)
		if err != nil {
			return nil, err
		}
		r.Metrics, r.Checks, defs = tp.metrics, tp.checks, perLayer
		r.Attempted, r.Failed = tp.attempted, tp.failed
	}
	// A ratio over zero completed ops is no number, and JSON has no way
	// to write one: it is withheld like an unsupported percentile.
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(r.Metrics, name)
		}
	}
	for _, def := range defs {
		if _, ok := r.Metrics[def.name]; !ok {
			r.Checks = append(r.Checks, fmt.Sprintf("%s withheld: no finite value, or too few samples at -seconds %g", def.name, seconds))
		}
	}
	r.Correct = len(r.Checks) == 0
	r.WallS = time.Since(t0).Seconds()
	return r, nil
}

// print writes the run as "workload metric value unit" lines.
func (r *runResult) print() {
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, def := range defs {
		m, ok := r.Metrics[def.name]
		if !ok {
			continue
		}
		note := ""
		if m.Samples > 0 {
			note = fmt.Sprintf("  n=%d", m.Samples)
		}
		fmt.Printf("%s %s %.6g %s  [%s]%s\n", r.Workload, def.name, m.Value, m.Unit, m.Clock, note)
	}
	for _, c := range r.Checks {
		fmt.Printf("%s check_failed %s\n", r.Workload, c)
	}
	fmt.Printf("%s run seed=%d trace=%d attempted=%d failed=%d wall=%.2fs\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.WallS)
}

// report is the result file: an envelope saying where the numbers came
// from, every run, and per (workload, metric) the median and quartiles
// over the runs that compare reads.
type report struct {
	Schema     int              `json:"schema"`
	Commit     string           `json:"commit"`
	Go         string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name    string              `json:"name"`
	Clock   string              `json:"clock"`
	Link    string              `json:"link"`
	Why     string              `json:"why"`
	Runs    []*runResult        `json:"runs"`
	Summary map[string]quartile `json:"summary"`
}

// quartile summarises one metric over a workload's runs. Spread is
// (Q3-Q1)/median, the figure a bound is judged against.
type quartile struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	Unit   string  `json:"unit"`
	Clock  string  `json:"clock"`
	What   string  `json:"what"`
}

func writeReport(path string, seed int64, seconds float64, results []*runResult) error {
	rep := report{
		Schema: 1, Commit: commit(), Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds,
	}
	what := map[string]string{}
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		what[def.name] = def.what
	}
	for _, s := range specs {
		w := workloadReport{Name: s.name, Clock: s.clock(), Link: "simulated fabric", Why: s.why,
			Summary: map[string]quartile{}}
		if s.clock() == "wall" {
			w.Link = "loopback, no real link"
		}
		values := map[string][]float64{}
		for _, r := range results {
			if r.Workload != s.name {
				continue
			}
			w.Runs = append(w.Runs, r)
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
				w.Summary[name] = quartile{Unit: m.Unit, Clock: m.Clock, What: what[name]}
			}
		}
		if len(w.Runs) == 0 {
			continue
		}
		for name, vs := range values {
			q := w.Summary[name]
			q.N = len(vs)
			q.Q1, q.Median, q.Q3 = quartiles(vs)
			if q.Median != 0 {
				q.Spread = (q.Q3 - q.Q1) / q.Median
			}
			w.Summary[name] = q
		}
		rep.Workloads = append(rep.Workloads, w)
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit is the VCS revision the binary was built from: what the build
// recorded, else what run.sh found and passed in BENCH_COMMIT.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
