#!/bin/sh
# Alternating parent / change pairs of ledger workloads: the protocol of
# the choosing-metrics guide (section 8) that every perf PR's CHANGES.md
# entry reports, as one command instead of a hand-rolled loop.
#
#   scripts/ledger_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD[,WORKLOAD...] \
#       [--pairs N] [--seed S] [--seconds T]
#
# WORKLOAD is one ledger workload or a comma-separated list of them; the
# workloads run one after another, each with its own pairs and its own
# table.
#
# PARENT_BIN and CHANGE_BIN are two builds of the ledger (ledger/Cargo.toml,
# each commit built into its own CARGO_TARGET_DIR and the binary copied
# aside). Run from the repository root, like the ledger itself: the serving
# workloads keep their journals under target/experiments/. Each pair runs
# both binaries untraced with the same arguments; odd pairs run the parent
# first, even pairs the change. The binaries are run as they are — this is
# not a second measuring stick, every number printed is one the ledger
# reported.
#
# A run is refused when its last stdout line is not the ledger's JSON
# result with "correct": true; a refused run ends its workload's pairs,
# and the script goes on to the next workload. A pair whose served_ratio,
# nuv or total_cost differ between the sides is a result difference: a
# speed-up that moves a decision is not a speed-up. Per workload the
# script prints, per end-to-end
# metric of BENCHMARK.json, each side's median and quartiles, the relative
# change of the medians, the pairs the change won (ties count for neither
# side), each side's quartile distance (q3 - q1) and a verdict, then
# "result differences: 0". The verdict is the first of these that holds:
#
#   gain              at least 10 pairs, at least 9 in 10 won, and the
#                     medians further apart than the parent's quartile
#                     distance, in the better direction;
#   unresolved        either side's quartile distance, relative to its
#                     median, is wider than the metric's bound, and not
#                     every change run reads better than every parent run;
#   worse than bound  the change's median is worse than the parent's by
#                     more than the bound (relative);
#   within bound      otherwise.
#
# The bound is the metric's "bound" in BENCHMARK.json. Verdicts inform; only
# a refused run or a result difference, on any of the workloads, makes the
# exit status non-zero (1, after every workload has run).
set -eu

usage() {
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD[,WORKLOAD...] [--pairs N] [--seed S] [--seconds T]" >&2
    exit 2
}

[ $# -ge 3 ] || usage
parent=$1
change=$2
workloads=$3
shift 3
pairs=10
seed=7
seconds=12
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --pairs) pairs=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        *) usage ;;
    esac
    shift 2
done
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
case $workloads in '' | ,* | *, | *,,*) usage ;; esac
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "$0: $bin is not an executable" >&2; exit 2; }
done
bench=$(dirname "$0")/../BENCHMARK.json
[ -r "$bench" ] || { echo "$0: cannot read $bench" >&2; exit 2; }

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run_side() { # workload side binary pair
    if ! "$3" --workload "$1" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$out/$1/$2.$4.out" 2>"$out/$1/$2.$4.err"; then
        echo "$0: $1 pair $4: the $2 run exited non-zero; its stderr:" >&2
        cat "$out/$1/$2.$4.err" >&2
        return 1
    fi
    tail -n 1 "$out/$1/$2.$4.out" >"$out/$1/$2.$4.json"
}

run_pairs() { # workload
    mkdir "$out/$1"
    pair=1
    while [ "$pair" -le "$pairs" ]; do
        if [ $((pair % 2)) -eq 1 ]; then
            run_side "$1" parent "$parent" "$pair" || return 1
            run_side "$1" change "$change" "$pair" || return 1
        else
            run_side "$1" change "$change" "$pair" || return 1
            run_side "$1" parent "$parent" "$pair" || return 1
        fi
        echo "$1: pair $pair/$pairs done" >&2
        pair=$((pair + 1))
    done
    report "$1"
}

report() { # workload
python3 - "$out/$1" "$pairs" "$bench" "$1" "$seed" "$seconds" <<'PY'
import json
import statistics
import sys

out, pairs, bench, workload, seed, seconds = sys.argv[1:7]
pairs = int(pairs)
with open(bench) as f:
    end_to_end = json.load(f)["end_to_end"]
MUST_NOT_MOVE = ("served_ratio", "nuv", "total_cost")


def load(side, pair):
    with open(f"{out}/{side}.{pair}.json") as f:
        line = f.read().strip()
    try:
        result = json.loads(line)
    except ValueError:
        sys.exit(f"{workload} pair {pair}: the {side} run's last line is not the JSON result: "
                 f"{line[:120]!r}")
    if result.get("correct") is not True:
        sys.exit(f"{workload} pair {pair}: the {side} run is not \"correct\": true ({line[:120]})")
    return {name: m["value"] for name, m in result["metrics"].items()}, result


def quartiles(values):
    """(q1, median, q3) of one side's runs."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def relative(x, base):
    """x as a fraction of |base|; 0 / 0 is 0 and x / 0 is infinite."""
    if base:
        return x / abs(base)
    return 0.0 if x == 0 else float("inf")


def verdict(p, c, lower, bound, wins):
    """The rule in this script's header, for one metric."""
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
    better_by = pm - cm if lower else cm - pm
    if pairs >= 10 and 10 * wins >= 9 * pairs and better_by > pq3 - pq1:
        return "gain"
    all_better = max(c) < min(p) if lower else min(c) > max(p)
    wide = relative(pq3 - pq1, pm) > bound or relative(cq3 - cq1, cm) > bound
    if wide and not all_better:
        return "unresolved"
    if relative(-better_by, pm) > bound:
        return "worse than bound"
    return "within bound"


runs = {"parent": [], "change": []}
failed = {"parent": 0, "change": 0}
attempted = {"parent": 0, "change": 0}
differences = 0
for pair in range(1, pairs + 1):
    sides = {}
    for side in ("parent", "change"):
        sides[side], result = load(side, pair)
        runs[side].append(sides[side])
        failed[side] += result.get("failed", 0)
        attempted[side] += result.get("attempted", 0)
    for name in MUST_NOT_MOVE:
        if sides["parent"][name] != sides["change"][name]:
            differences += 1
            print(f"{workload} pair {pair}: {name} differs: parent {sides['parent'][name]!r}, "
                  f"change {sides['change'][name]!r}")

print(f"{workload}, seed {seed}, {pairs} alternating pair(s) of {seconds} s untraced runs")
print(f"failed operations: parent {failed['parent']}/{attempted['parent']}, "
      f"change {failed['change']}/{attempted['change']}")
header = (f"{'metric':<18}{'unit':<7}{'parent median [q1, q3]':<42}"
          f"{'change median [q1, q3]':<42}{'change':>8}  {'won':<16}"
          f"{'q3 - q1 parent / change':<30}verdict (bound)")
print(header)
for metric in end_to_end:
    name, lower = metric["name"], metric["better"] == "lower"
    p = [r[name] for r in runs["parent"]]
    c = [r[name] for r in runs["change"]]
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
    p_text = f"{pm:.6g} [{pq1:.6g}, {pq3:.6g}]"
    c_text = f"{cm:.6g} [{cq1:.6g}, {cq3:.6g}]"
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    losses = sum((b > a) if lower else (b < a) for a, b in zip(p, c))
    delta = f"{(cm - pm) / pm * 100:+.1f}%" if pm else "n/a"
    won = f"{wins}/{pairs} (lost {losses})"
    iqr = f"{pq3 - pq1:.3g} / {cq3 - cq1:.3g}"
    judged = verdict(p, c, lower, metric["bound"], wins)
    print(f"{name:<18}{metric['unit']:<7}{p_text:<42}{c_text:<42}{delta:>8}  {won:<16}"
          f"{iqr:<30}{judged} ({metric['bound']:.0%})")
print(f"result differences: {differences}")
print()
sys.exit(1 if differences else 0)
PY
}

status=0
for workload in $(echo "$workloads" | tr ',' ' '); do
    run_pairs "$workload" || status=1
done
exit "$status"
