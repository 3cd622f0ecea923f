#!/bin/sh
# deadknobs.sh — hold the number of configuration fields to a ceiling.
#
# Every exported field of a *Config struct is one more value that the
# bit-identity tests and the benchmark must hold still. This script
# prints how many exported *Config fields there are under internal/
# and fails when that total is above the one number in
# scripts/knobs.max (a PR that removes knobs lowers it, as with
# lines.max). So that the count sees every knob, a functional-option
# type (`type ...Option func(`) under internal/ fails the script too:
# a layer is configured by one struct taken at construction. The one
# exception is core.InvokeOption, a per-call argument rather than
# configuration.
#
# Whether each field is set outside tests is checked by type, not by
# name: TestConfigFieldsHaveSetters in surface_test.go fails for a field
# that only its own file and _test.go files set, unless
# scripts/knobs.allow gives the reason it stays.
#
# Run from the repo root: ./scripts/deadknobs.sh

set -eu
cd "$(dirname "$0")/.."

# One line per exported field of a *Config struct.
total=$(find internal -name '*.go' ! -name '*_test.go' | sort | xargs awk '
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
            if (w[1] ~ /^[A-Z][A-Za-z0-9_]*$/) print st "." w[1]
        }
    }' | grep -c .)

fail=0
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
