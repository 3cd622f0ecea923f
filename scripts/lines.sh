#!/bin/sh
# lines.sh — the size of the system: non-test Go lines outside the
# benchmark (bench/) and its build directory (.bench_build/), per
# package and in total.
#
# This is the figure ROADMAP.md, CHANGES.md and every simplicity issue
# quote; it used to come from an ad-hoc `find ... | wc -l`. Blank lines
# and comments count: a change is not smaller for having lost them.
#
#   ./scripts/lines.sh           per-package table, then the total
#   ./scripts/lines.sh DIR       the same for another checkout (a clone
#                                of the parent commit, for a before/after)

set -eu
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' |
    xargs wc -l |
    awk '$2 != "total" {
            dir = $2
            sub(/^\.\//, "", dir)
            sub(/\/?[^\/]*$/, "", dir)
            if (dir == "") dir = "."
            lines[dir] += $1
            total += $1
        }
        END {
            for (d in lines) printf "%6d  %s\n", lines[d], d | "sort -k2"
            close("sort -k2")
            printf "%6d  total\n", total
        }'
