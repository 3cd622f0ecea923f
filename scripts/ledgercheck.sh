#!/bin/sh
# ledgercheck.sh — judge the tree against the newest ledger entry.
#
# Measures the tree the way ledger/README.md makes an entry (every
# workload, seeds 100–102, untraced; about four minutes on two cores),
# then runs `bench compare` with the newest ledger/<n>.json as A and the
# measurement as B. A row whose metric runs on the virtual clock and
# comes out `regressed` fails the check: those numbers repeat exactly
# per seed, so a change there is a change of behaviour. Wall-clock rows
# are printed but not judged, because the machine running this is not
# the one the ledger was measured on.
#
#   ./scripts/ledgercheck.sh             measure the tree, then judge it
#   ./scripts/ledgercheck.sh TREE.json   judge a measurement made before
#
# Run from anywhere; the measurement lands in .bench_build/.

set -eu
cd "$(dirname "$0")/.."

base=ledger/$(ls ledger | sed -n 's/^\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -n 1).json
tree=${1:-}
if [ -z "$tree" ]; then
    mkdir -p .bench_build
    tree=.bench_build/ledger-tree.json
    bash bench/run.sh --workload all --runs 3 --seed 100 --trace 0 --out "$tree"
fi

# compare exits 1 when any row regressed and 2 on unusable input; only
# the latter ends the check here, the regressed rows are sorted below.
status=0
rows=$(bash bench/run.sh compare "$base" "$tree") || status=$?
printf '%s\n' "$rows"
[ "$status" -le 1 ] || exit "$status"

# The clock of a row is the one its metric has in the ledger entry.
bad=$(printf '%s\n' "$rows" | awk '$NF == "regressed" { print $1, $2 }' |
    while read -r workload metric; do
        clock=$(jq -r --arg w "$workload" --arg m "$metric" \
            '.workloads[] | select(.name == $w) | .summary[$m].clock' "$base")
        if [ "$clock" = virtual ]; then
            echo "$workload $metric"
        fi
    done)
if [ -n "$bad" ]; then
    echo "ledgercheck: FAILED — virtual-clock rows regressed against $base:" >&2
    printf '%s\n' "$bad" | sed 's/^/  /' >&2
    exit 1
fi
echo "ledgercheck: OK — no virtual-clock row regressed against $base (wall-clock rows are not judged)"
