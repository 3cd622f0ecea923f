package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/workload"
)

// Experiment is one gaspbench command, declared once: its name and
// summary for the usage text, whether `all` runs it, where its report
// goes, the flags it reads, and a run that prints its tables and notes
// and returns the verdict of its pass criterion.
type Experiment struct {
	Name    string
	Summary string
	// InAll marks the entries `all` runs, in table order.
	InAll bool
	// Report is the default -out path; empty means the entry writes no
	// report and takes no -out.
	Report string
	// Flags are the flags Run reads; a command accepts no others.
	Flags Flag
	// Run measures at o and prints to out. An error after out.Report
	// is a failed pass criterion: the report is still written.
	Run func(o Options, out *Output) error
}

// Flag is a set of command-line flags an experiment reads.
type Flag uint

// The flags an Experiment can read. -out comes with a Report path.
const (
	FlagSeed     Flag = 1 << iota // -seed
	FlagCSV                       // -csv
	FlagAccesses                  // -accesses
	FlagSmoke                     // -smoke
	FlagCheck                     // -scenario -schedule -runs
)

// Options are the flag values an experiment runs at.
type Options struct {
	Seed     int64
	Accesses int // per sweep point of Figures 2 and 3
	CSV      bool
	Out      string
	Smoke    bool // E12 on its CI grid
	// E10: explore one scenario, or replay one schedule of it, in at
	// most Runs executions.
	Scenario, Schedule string
	Runs               int
}

// Run runs e at o, printing to w. A report is written to o.Out with
// GeneratedAt set to stamp(), after the run, so that same-seed bodies
// stay byte-identical.
func Run(e *Experiment, o Options, w io.Writer, stamp func() string) error {
	out := &Output{Writer: w, csv: o.CSV, stamp: stamp}
	err := e.Run(o, out)
	if out.body != nil {
		out.header.GeneratedAt = stamp()
		b, werr := json.MarshalIndent(out.body, "", "  ")
		if werr == nil {
			werr = os.WriteFile(o.Out, append(b, '\n'), 0o644)
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(w, "wrote %s\n", o.Out)
	}
	return err
}

// runAll runs every entry marked InAll, each report at its default
// path, with a blank line after each.
func runAll(o Options, out *Output) error {
	for i := range Experiments {
		e := &Experiments[i]
		if !e.InAll {
			continue
		}
		o.Out = e.Report
		if err := Run(e, o, out.Writer, out.stamp); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// Output is what an experiment prints to: tables, aligned for a
// terminal or as CSV (-csv) and a blank line apart, notes the aligned
// layout alone shows, and the report Run writes once the experiment
// returns.
type Output struct {
	io.Writer
	csv    bool
	tables int
	stamp  func() string
	header *workload.ReportHeader
	body   any
}

// Note prints in the aligned layout only.
func (out *Output) Note(format string, args ...any) {
	if !out.csv {
		fmt.Fprintf(out, format, args...)
	}
}

// Report sets the report body and the header Run stamps.
func (out *Output) Report(header *workload.ReportHeader, body any) {
	out.header, out.body = header, body
}

// row is a printed row type. Its cells alternate column name and
// value, as slog's key-value pairs do, so that each column is named
// once, beside the field it prints; the zero row names the columns of
// an empty table. A float64 value prints with one decimal; other
// precisions are formatted by the row.
type row interface {
	cells() []any
}

// table prints rows under title, unless err says the run that made
// them failed; it returns err.
func table[R row](out *Output, title string, rows []R, err error) error {
	if err != nil {
		return err
	}
	if out.tables++; out.tables > 1 {
		fmt.Fprintln(out)
	}
	var zero R
	lines := [][]string{every2(zero.cells(), 0)}
	for _, r := range rows {
		lines = append(lines, every2(r.cells(), 1))
	}
	if out.csv {
		fmt.Fprintf(out, "# %s\n", title)
		for _, l := range lines {
			fmt.Fprintln(out, strings.Join(l, ","))
		}
		return nil
	}
	widths := make([]int, len(lines[0]))
	for _, l := range lines {
		for i, c := range l {
			widths[i] = max(widths[i], len(c))
		}
	}
	fmt.Fprintf(out, "== %s ==\n", title)
	for _, l := range lines {
		for i, c := range l {
			fmt.Fprintf(out, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(out)
	}
	return nil
}

// every2 formats every other cell from the first-th: the names or the
// values.
func every2(cells []any, first int) []string {
	var out []string
	for i := first; i < len(cells); i += 2 {
		if f, ok := cells[i].(float64); ok {
			out = append(out, fmt.Sprintf("%.1f", f))
		} else {
			out = append(out, fmt.Sprint(cells[i]))
		}
	}
	return out
}

// rowsOf wraps each of ts as a printed row.
func rowsOf[T any, R row](ts []T, wrap func(T) R) []R {
	rows := make([]R, len(ts))
	for i, t := range ts {
		rows[i] = wrap(t)
	}
	return rows
}

// fixed formats v with prec decimals, for the cells that do not print
// with one.
func fixed(prec int, v float64) string { return fmt.Sprintf("%.*f", prec, v) }

// sweep measures point at each of points in order; an error names the
// point it happened at.
func sweep[P, R any](points []P, point func(P) (R, error)) ([]R, error) {
	rows := make([]R, 0, len(points))
	for _, p := range points {
		r, err := point(p)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", p, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// pair is one point of a two-parameter grid.
type pair[A, B any] struct {
	a A
	b B
}

func (p pair[A, B]) String() string { return fmt.Sprintf("%v/%v", p.a, p.b) }

// grid is every (a, b) in row-major order: b varies fastest.
func grid[A, B any](as []A, bs []B) []pair[A, B] {
	var out []pair[A, B]
	for _, a := range as {
		for _, b := range bs {
			out = append(out, pair[A, B]{a, b})
		}
	}
	return out
}
