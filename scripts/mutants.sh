#!/bin/sh
# Committed mutants: each tests/mutants/*.patch breaks one thing tier-1
# must notice — how the event engine turns arrivals into decision epochs
# (due times, flush order, which events join an epoch), or the bounds that
# let the sweep and commit deltas skip work (the cell-pair gap, the merged
# prune probe, which blocks may be dismissed, the stale cells of a
# dismissed row), or the decision service's journal claim (a resumed
# session must hold its tenant's journal). This applies each patch in turn
# to a scratch copy of HEAD, runs `cargo test -q` there and prints the
# tests that failed — the ones that catch the mutant.
#
#   scripts/mutants.sh [WORKDIR]
#
# Run from the repository root. WORKDIR (default: a fresh temporary
# directory) receives the copy, its target directory and one log per
# mutant; reusing it keeps the builds incremental. The patches are read
# from the working tree, the code from HEAD. Exits 1 if any mutant
# survives (every test passes) or does not build.
set -eu

root=$(git rev-parse --show-toplevel)
work=${1:-$(mktemp -d)}
mkdir -p "$work"
rm -rf "$work/src"
mkdir "$work/src"
git -C "$root" archive HEAD | tar -x -C "$work/src"
export CARGO_TARGET_DIR="$work/target"

status=0
for patch in "$root"/tests/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    log="$work/$name.log"
    (cd "$work/src" && git apply "$patch")
    if (cd "$work/src" && cargo test -q --no-fail-fast >"$log" 2>&1); then
        echo "$name: SURVIVED"
        status=1
    elif grep -q "could not compile" "$log"; then
        echo "$name: DOES NOT BUILD (see $log)"
        status=1
    else
        # libtest prints `---- <test> stdout ----` for each failed test,
        # then cargo names the test binary they ran in: `error: test
        # failed, to rerun pass `<cargo args>``.
        caught=$(awk '
            /^---- .* stdout ----$/ { failed[n++] = $2 }
            /^error: .*failed, to rerun pass / {
                match($0, /`[^`]*`/)
                target = substr($0, RSTART + 1, RLENGTH - 2)
                for (i = 0; i < n; i++) print "    " target ": " failed[i]
                n = 0
            }
        ' "$log")
        echo "$name: caught by"
        echo "$caught"
    fi
    (cd "$work/src" && git apply -R "$patch")
done
exit $status
