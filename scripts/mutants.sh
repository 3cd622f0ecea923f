#!/usr/bin/env bash
# Runs the mutant corpus. Each scripts/mutants/<pr>-<name>.patch
# re-creates, against today's tree, a bug this repository once fixed.
# For each patch (every one, or the ones named), the script copies the
# files the patch touches into a temporary directory, applies the patch
# there, and builds the mutant with `go build -overlay`, which maps each
# original path to its patched copy. Then it runs the oracles the patch
# names in its header (the lines before the first `diff --git`), in
# order:
#
#   oracle: check FLAG...      go run ./cmd/gaspbench check FLAG...
#   oracle: test PKG NAME...   go test -run '^(NAME|...)$' PKG
#   oracle: fuzz PKG FuzzX     FuzzX's seed corpus: go test -run '^FuzzX$' PKG
#
# An oracle kills the mutant when it exits nonzero. The script prints
# one row per mutant: the first oracle that killed it, or SURVIVED. It
# exits 1 when a mutant survives, a patch no longer applies or does not
# build, or a test oracle names no test. It never writes to the
# checkout, and it shares the build cache.
#
# With -keep DIR, DIR/<name> keeps the patched files, overlay.json, and
# the killing oracle's stdout (killer.out) and stderr (killer.err).
#
# After a run of the whole corpus the script prints `check kills N of
# M at CI's seeds`, the number of mutants whose killer is `gaspbench check` at a seed
# CI's checker smoke runs (42, the default, or 7), and fails when N is
# below the count scripts/mutants/README states: the checker may catch
# more of the corpus, never fewer. A kill only at another seed is a kill
# of the corpus, not of CI, and is not counted.
#
# usage: scripts/mutants.sh [-keep DIR] [name...]
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
corpus=$root/scripts/mutants
keep=
if [[ ${1-} == -keep ]]; then
	keep=$(mkdir -p "$2" && cd "$2" && pwd)
	shift 2
fi
whole=
if (($# == 0)); then
	set -- $(cd "$corpus" && ls *.patch | sed 's/\.patch$//')
	whole=1
fi

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# oracle KIND ARG... runs one oracle against the overlay $ov, its stdout
# in $dir/oracle.out and stderr in $dir/oracle.err. It returns 0 when
# the oracle passes, 1 when it kills the mutant and 2 when the oracle
# itself is broken: an unknown kind, a missing command, a flag check
# does not take, or a test pattern that matches nothing.
oracle() {
	local kind=$1 rc=0
	shift
	case $kind in
	check) (cd "$root" && timeout 600 go run -overlay "$ov" ./cmd/gaspbench check "$@") ;;
	test | fuzz) (cd "$root" && IFS='|' && go test -timeout 10m -overlay "$ov" -run "^(${*:2})\$" "$1") ;;
	*) return 2 ;;
	esac >"$dir/oracle.out" 2>"$dir/oracle.err" || rc=$?
	if ((rc == 127)) || grep -q '^usage: gaspbench\|no tests to run\|\[build failed\]\|\[setup failed\]' \
		"$dir/oracle.out" "$dir/oracle.err"; then
		return 2
	fi
	return $((rc != 0))
}

printf '%-34s %s\n' mutant 'killed by'
failed=0
kills=0
for name in "$@"; do
	patch=$corpus/$name.patch
	if [[ -n $keep ]]; then
		dir=$keep/$name
		rm -rf "$dir"
	else
		dir=$scratch/$name
	fi
	mkdir -p "$dir"
	if [[ ! -f $patch ]]; then
		printf '%-34s %s\n' "$name" 'ERROR: no such patch'
		failed=1
		continue
	fi
	files=$(sed -n 's|^diff --git a/\(.*\) b/.*|\1|p' "$patch")
	sep=
	ov=$dir/overlay.json
	printf '{"Replace": {' >"$ov"
	for f in $files; do
		mkdir -p "$dir/$(dirname "$f")"
		cp "$root/$f" "$dir/$f"
		printf '%s\n  "%s": "%s"' "$sep" "$root/$f" "$dir/$f" >>"$ov"
		sep=,
	done
	printf '\n}}\n' >>"$ov"
	if ! (cd "$dir" && GIT_CEILING_DIRECTORIES=$(dirname "$dir") git apply "$patch") 2>"$dir/oracle.err"; then
		printf '%-34s %s\n' "$name" 'ERROR: patch does not apply'
		cat "$dir/oracle.err" >&2
		failed=1
		continue
	fi
	if ! (cd "$root" && go build -overlay "$ov" ./...) 2>"$dir/oracle.err"; then
		printf '%-34s %s\n' "$name" 'ERROR: mutant does not build'
		cat "$dir/oracle.err" >&2
		failed=1
		continue
	fi
	killer=SURVIVED
	while read -r -a args; do
		rc=0
		oracle "${args[@]}" </dev/null || rc=$?
		if ((rc == 2)); then
			killer="ERROR: broken oracle: ${args[*]}"
			cat "$dir/oracle.out" "$dir/oracle.err" >&2
			break
		fi
		if ((rc == 1)); then
			killer=${args[*]}
			mv "$dir/oracle.out" "$dir/killer.out"
			mv "$dir/oracle.err" "$dir/killer.err"
			break
		fi
	done < <(sed -n '/^diff --git/q; s/^oracle: //p' "$patch")
	rm -f "$dir/oracle.out" "$dir/oracle.err"
	printf '%-34s %s\n' "$name" "$killer"
	if [[ $killer == SURVIVED || $killer == ERROR* ]]; then
		failed=1
	fi
	if [[ $killer =~ ^check(\ -scenario\ [^\ ]+)?(\ -seed\ (42|7))?$ ]]; then
		kills=$((kills + 1))
	fi
done
if [[ -n $whole ]]; then
	stated=$(sed -n 's/.*`gaspbench check` kills \([0-9]*\) of.*/\1/p' "$corpus/README" | head -1)
	echo "check kills $kills of $# at CI's seeds"
	if ((kills < ${stated:-0})); then
		echo "mutants: FAILED — check kills $kills, fewer than the $stated scripts/mutants/README states" >&2
		failed=1
	fi
fi
exit $failed
