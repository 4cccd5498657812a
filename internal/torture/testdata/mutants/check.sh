#!/usr/bin/env bash
# Mutation check for internal/torture: every patch in this directory is a
# one-line bug in a layer the torture package covers. Each is applied to a
# throwaway copy of the tree, where `go test ./internal/torture` must FAIL;
# a patch that no longer applies fails the check too, so the set cannot rot.
#
#   bash internal/torture/testdata/mutants/check.sh [M3 ...]   # from the repository root
set -euo pipefail

root=$PWD
here=internal/torture/testdata/mutants
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tar --exclude=.git --exclude=.bench_build -cf "$tmp/tree.tar" .

missed=0
for patch in "$here"/*.patch; do
	name=$(basename "$patch" .patch)
	if [ $# -gt 0 ] && [[ " $* " != *" ${name%%-*} "* ]]; then
		continue
	fi
	rm -rf "$tmp/src" && mkdir "$tmp/src" && tar -xf "$tmp/tree.tar" -C "$tmp/src"
	if ! (cd "$tmp/src" && git apply "$root/$patch"); then
		echo "STALE   $name: patch no longer applies"
		missed=1
	elif (cd "$tmp/src" && go test -count=1 -failfast ./internal/torture >"$tmp/out" 2>&1); then
		echo "MISSED  $name: go test ./internal/torture passes with the bug in"
		missed=1
	elif ! grep -q -- '^--- FAIL' "$tmp/out"; then
		echo "BROKEN  $name: the mutant does not build or run"
		cat "$tmp/out"
		missed=1
	else
		echo "caught  $name: $(grep -- '^--- FAIL' "$tmp/out" | tr '\n' ' ')"
	fi
done
exit $missed
