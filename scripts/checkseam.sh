#!/bin/sh
# checkseam.sh — grep-gate the backend seam.
#
# The Clock/Link seam (internal/backend) only works if the protocol
# stack stays backend-neutral: the packages between the wire and the
# API must reach time and the network exclusively through
# backend.Clock / backend.Link. This script fails CI when a wall-clock
# call or a backend import leaks above the seam.
#
# Two gates:
#
#  1. HOT-PATH PURITY — the packages that run identically on both
#     backends must not import either backend implementation
#     (internal/netsim, internal/realnet) outside _test files. Tests
#     may drive the simulator directly.
#
#  2. WALL-CLOCK CONFINEMENT — no package outside the seam
#     implementations may call the runtime wall clock
#     (time.Now/Since/Sleep/After/AfterFunc/NewTimer/NewTicker/Tick).
#     Pure time *types* and context deadlines (e.g. 10*time.Second)
#     remain fine anywhere. Exceptions, each with a reason:
#       internal/experiments/wall.go  the experiments' one wall-clock
#                                     reader, for the fields that
#                                     measure real CPU cost:
#                                     serialization's timings and
#                                     E12's sharder lookup
#       cmd/gaspbench/main.go         report timestamps, stamped
#                                     outside the deterministic run
#
# Run from the repo root: ./scripts/checkseam.sh

set -eu
cd "$(dirname "$0")/.."
fail=0

# Gate 1: backend-neutral packages.
HOT_PKGS="internal/transport internal/coherence internal/discovery
internal/rpc internal/dataplane internal/memproto internal/wire
internal/object internal/store internal/placement internal/trace
internal/telemetry internal/future internal/backend
internal/backend/conformance internal/raft"

for pkg in $HOT_PKGS; do
    # shellcheck disable=SC2046
    leaks=$(grep -ln '"repro/internal/netsim"\|"repro/internal/realnet"' \
        $(find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go') \
        2>/dev/null || true)
    if [ -n "$leaks" ]; then
        echo "SEAM LEAK: backend implementation imported above the seam:" >&2
        echo "$leaks" | sed 's/^/  /' >&2
        fail=1
    fi
done

# Gate 2: wall-clock calls outside the seam implementations.
WALL_RE='time\.(Now|Since|Sleep|After|AfterFunc|NewTimer|NewTicker|Tick)\('
ALLOW='^internal/realnet/|^internal/realtest/|^internal/experiments/wall\.go|^cmd/gaspbench/main\.go'

hits=$(grep -rEn "$WALL_RE" cmd internal examples --include='*.go' \
    | grep -Ev "^($ALLOW)" || true)
if [ -n "$hits" ]; then
    echo "SEAM LEAK: wall-clock call outside internal/realnet (use backend.Clock):" >&2
    echo "$hits" | sed 's/^/  /' >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "checkseam: FAILED — the backend seam has leaks (see above)" >&2
    exit 1
fi
echo "checkseam: OK — protocol stack is backend-neutral, wall clock confined to the seam"
