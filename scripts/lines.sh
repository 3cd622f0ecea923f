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
#
# scripts/lines.max of the checkout being counted holds one number, the
# ceiling: a total above it exits 1, so a PR that adds lines has to
# raise the number in its own diff. A PR that removes lines lowers it
# to its new total.

set -eu
cd "${1:-$(dirname "$0")/..}"
max=0
[ -f scripts/lines.max ] && max=$(cat scripts/lines.max)

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' |
    xargs wc -l |
    awk -v max="$max" '$2 != "total" {
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
            if (max > 0 && total > max) {
                printf "lines: FAILED — %d lines is above the ceiling of %d in scripts/lines.max\n", total, max > "/dev/stderr"
                exit 1
            }
        }'
