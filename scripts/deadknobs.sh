#!/bin/sh
# deadknobs.sh — list configuration fields nothing sets.
#
# Every exported field of a *Config struct is one more value that the
# bit-identity tests and the benchmark must hold still. A field that
# no file other than the one defining it ever assigns has one value in
# use — its default — and should be a constant. This script lists such
# fields under internal/ and fails if there are any, so options cannot
# re-accumulate.
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

if [ "$dead" -ne 0 ]; then
    echo "deadknobs: FAILED — $dead config field(s) with one value in use; make each a constant" >&2
    exit 1
fi
