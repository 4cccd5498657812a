#!/usr/bin/env bash
# Paired measurement of a claimed gain (choosing-metrics §8), from the
# repository root:
#
#   bash scripts/benchpair.sh REV WORKLOAD N [SEED]
#
# 1. Builds REV (exported into a temporary directory with `git archive`)
#    and the working tree, each with benchmark/run.sh.
# 2. Prints each binary's main.(*calibrator).pass address and its class
#    mod 64, and exits non-zero if the classes differ: the box-speed
#    normalisation of every host figure depends on where the linker put
#    the calibrator (0 vs 32 moves host_ops_per_s by tens of percent), so
#    a pair of builds in different classes measures the layout, not the
#    change.
# 3. Runs N alternating pairs of `--workload WORKLOAD --seed SEED` (SEED
#    defaults to 1, the benchmark's own) at the benchmark's own length,
#    switching which side goes first, and prints per pair both sides'
#    eight end-to-end metrics and their change/parent ratio, then each
#    side's median and quartiles and the change's wins per metric (ties
#    count for neither side). A seed other than 1 is the held-out-seed
#    check of a claimed gain.
# 4. Says whether the deterministic columns, virt_ops_per_s and
#    flash_writes_per_op, were identical in every pair, or lists the
#    pairs where they differ: a host-side change must not move them.
#
# Temporary files go under $TMPDIR (default /tmp) and are removed on exit.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: bash scripts/benchpair.sh REV WORKLOAD N [SEED]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seed=${4:-1}
root=$PWD
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
for side in "$tmp/parent" "$root"; do
	(cd "$side" && bash benchmark/run.sh spec >/dev/null)
done

class() {
	local addr
	addr=$(go tool nm "$1/.bench_build/benchmark" | awk '$NF == "main.(*calibrator).pass" && !n++ { print $1 }')
	if [ -z "$addr" ]; then
		echo "benchpair: no main.(*calibrator).pass in $1/.bench_build/benchmark" >&2
		exit 1
	fi
	echo "$addr $((16#$addr % 64))"
}
pinfo=$(class "$tmp/parent")
cinfo=$(class "$root")
read -r paddr pclass <<<"$pinfo"
read -r caddr cclass <<<"$cinfo"
echo "workload $workload seed $seed pairs $pairs"
echo "calibrator.pass  parent $rev 0x$paddr class $pclass  change 0x$caddr class $cclass"
if [ "$pclass" != "$cclass" ]; then
	echo "benchpair: calibrator classes differ; host figures would compare link layouts" >&2
	exit 1
fi

run() { # dir label pair: appends "label pair JSON" to the results
	local json
	# A failed output check exits non-zero; the result line still says so.
	json=$(cd "$1" && ./.bench_build/benchmark --workload "$workload" --seed "$seed" --trace 0 | tail -n 1) || true
	echo "$2 $3 $json" >>"$tmp/results"
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run "$tmp/parent" parent "$i" && run "$root" change "$i"
	else
		run "$root" change "$i" && run "$tmp/parent" parent "$i"
	fi
	echo "pair $i/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$tmp/results" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))["end_to_end"]
names = [m["name"] for m in spec]
runs = {"parent": {}, "change": {}}
for line in open(sys.argv[2]):
    side, pair, doc = line.split(" ", 2)
    res = json.loads(doc)
    if not res["correct"] or res["failed"]:
        print(f"pair {pair} {side}: attempted {res['attempted']} failed {res['failed']} correct {res['correct']}")
    runs[side][int(pair)] = {n: res["metrics"][n]["value"] for n in names}
pairs = sorted(set(runs["parent"]) & set(runs["change"]))

print(f"{'pair':>4} {'':6}" + "".join(f"{n:>21}" for n in names))
for p in pairs:
    par, chg = runs["parent"][p], runs["change"][p]
    print(f"{p:>4} {'parent':6}" + "".join(f"{par[n]:>21.6g}" for n in names))
    print(f"{p:>4} {'change':6}" + "".join(f"{chg[n]:>21.6g}" for n in names))
    print(f"{p:>4} {'ratio':6}" + "".join(f"{chg[n] / par[n]:>21.4f}" if par[n] else f"{'-':>21}" for n in names))

def summary(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return f"{statistics.median(xs):.6g} [{q[0]:.6g}, {q[2]:.6g}]"

print(f"\n{'metric':22}{'parent median [q1, q3]':>36}{'change median [q1, q3]':>36}{'ratio':>8}{'wins':>8}")
for m in spec:
    n, higher = m["name"], m["better"] == "higher"
    par = [runs["parent"][p][n] for p in pairs]
    chg = [runs["change"][p][n] for p in pairs]
    wins = sum((c > a) if higher else (c < a) for a, c in zip(par, chg))
    pm, cm = statistics.median(par), statistics.median(chg)
    ratio = f"{cm / pm:.3f}" if pm else "-"
    print(f"{n:22}{summary(par):>36}{summary(chg):>36}{ratio:>8}{wins:>5}/{len(pairs)}")

print()
for n in ("virt_ops_per_s", "flash_writes_per_op"):
    moved = [p for p in pairs if runs["parent"][p][n] != runs["change"][p][n]]
    if moved:
        print(f"{n}: differs in pairs {' '.join(map(str, moved))}")
    else:
        print(f"{n}: identical in every pair")
EOF
