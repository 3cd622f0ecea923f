#!/bin/sh
# deadknobs.sh — list configuration fields nothing sets, and hold the
# number of configuration fields to a ceiling.
#
# Every exported field of a *Config struct is one more value that the
# bit-identity tests and the benchmark must hold still. A field that
# no file other than the one defining it ever assigns has one value in
# use — its default — and should be a constant. This script lists such
# fields under internal/ and fails if there are any, so options cannot
# re-accumulate.
#
# It also prints how many exported *Config fields there are under
# internal/ and fails when that total is above the one number in
# scripts/knobs.max (a PR that removes knobs lowers it, as with
# lines.max). So that the count sees every knob, a functional-option
# type (`type ...Option func(`) under internal/ fails the script too:
# a layer is configured by one struct taken at construction. The one
# exception is core.InvokeOption, a per-call argument rather than
# configuration.
#
# "Assigns" is matched by name, in any .go file of the tree but the
# defining one: a composite-literal key (`Field:`) or a selector
# assignment (`.Field =`, `.Field +=`, ...). Matching by name rather
# than by type can only miss a dead field (when a live field elsewhere
# shares its name), never report a live one.
#
# Run from the repo root: ./scripts/deadknobs.sh

set -eu
cd "$(dirname "$0")/.."

# file<TAB>struct<TAB>field for every exported field of a *Config struct.
fields=$(find internal -name '*.go' ! -name '*_test.go' | sort | xargs awk '
    /^type [A-Za-z0-9_]*Config struct \{/ { st = $2; next }
    st != "" && /^\}/ { st = ""; next }
    st != "" && /^\t[A-Z][A-Za-z0-9_, ]*[ \t]+[^ \t]/ {
        line = $0
        sub(/^\t/, "", line)
        sub(/\/\/.*/, "", line)
        # names are the comma-separated list before the type.
        n = split(line, parts, /,[ \t]*/)
        for (i = 1; i <= n; i++) {
            split(parts[i], w, /[ \t]+/)
            if (w[1] ~ /^[A-Z][A-Za-z0-9_]*$/) printf "%s\t%s\t%s\n", FILENAME, st, w[1]
        }
    }')

all=$(find . -name '*.go' ! -path './.bench_build/*' | sort)
dead=0
tab=$(printf '\t')
while IFS="$tab" read -r file st field; do
    [ -n "$field" ] || continue
    # shellcheck disable=SC2046
    if ! grep -Eq "(^|[^A-Za-z0-9_.])$field:|\.$field[ $tab]*([-+*/|&^]?=[^=]|\+\+|--)" \
        $(echo "$all" | grep -vxF "./$file"); then
        echo "$file: $st.$field is set by no other file"
        dead=$((dead + 1))
    fi
done <<EOF
$fields
EOF

fail=0
if [ "$dead" -ne 0 ]; then
    echo "deadknobs: FAILED — $dead config field(s) with one value in use; make each a constant" >&2
    fail=1
fi

total=$(printf '%s\n' "$fields" | grep -c .)
max=$(cat scripts/knobs.max)
echo "$total exported *Config fields under internal/ (ceiling $max)"
if [ "$total" -gt "$max" ]; then
    echo "deadknobs: FAILED — $total config fields is above the ceiling of $max in scripts/knobs.max" >&2
    fail=1
fi

options=$(grep -rnE '^type [A-Za-z0-9_]*Option func\(' --include='*.go' internal |
    grep -v '^internal/core/invoke.go:[0-9]*:type InvokeOption func(' || true)
if [ -n "$options" ]; then
    echo "$options"
    echo "deadknobs: FAILED — functional-option type(s) above; take a config struct at construction" >&2
    fail=1
fi
exit "$fail"
