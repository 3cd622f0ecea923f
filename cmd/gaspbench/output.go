package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/workload"
)

// writeReport stamps rep's header hdr and writes rep to path as
// indented JSON. The stamp happens here, after the deterministic body
// is complete, so same-seed report bodies stay byte-identical (host
// measurements such as sharder_lookup_ns_per_op aside).
func writeReport(path string, hdr *workload.ReportHeader, rep any) error {
	hdr.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// wallStart anchors wallNanos; time.Now carries the monotonic reading,
// so differences of wallNanos values are drift-free intervals.
var wallStart = time.Now()

// wallNanos is the monotonic wall-clock reader injected into the few
// experiment fields that are documented real-CPU measurements (E12's
// sharder_lookup_ns_per_op). Keeping the reader here confines the
// wall clock to this file (checkseam gate 2).
func wallNanos() int64 { return time.Since(wallStart).Nanoseconds() }

// table renders rows either aligned for terminals or as CSV (-csv),
// so every figure regenerates in a plottable form.
type table struct {
	title   string
	headers []string
	rows    [][]string
}

func newTable(title string, headers ...string) *table {
	return &table{title: title, headers: headers}
}

func (t *table) row(cells ...interface{}) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			out[i] = fmt.Sprintf("%.1f", v)
		case string:
			out[i] = v
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, out)
}

func (t *table) print(asCSV bool) {
	if asCSV {
		fmt.Printf("# %s\n", t.title)
		fmt.Println(strings.Join(t.headers, ","))
		for _, r := range t.rows {
			fmt.Println(strings.Join(r, ","))
		}
		return
	}
	fmt.Printf("== %s ==\n", t.title)
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for i, h := range t.headers {
		fmt.Printf("%-*s  ", widths[i], h)
	}
	fmt.Println()
	for _, r := range t.rows {
		for i, c := range r {
			fmt.Printf("%-*s  ", widths[i], c)
		}
		fmt.Println()
	}
}
