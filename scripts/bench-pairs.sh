#!/bin/sh
# The ROADMAP's rule for a speed claim: alternating parent/change pairs of
# a `benchmark/` workload, then medians, quartiles and wins-of-N for each
# end-to-end metric. Run from the repo root:
#
#   sh scripts/bench-pairs.sh <parent-ref> <workload|all> [pairs=10] [seconds=15] [row...]
#
# "parent" is the committed tree of <parent-ref>, unpacked under
# target/pairs/ (ignored); "change" is the working tree. Both are built
# with `cargo build --release --manifest-path benchmark/Cargo.toml`, the
# parent into target/pairs/target-<commit hash>: `git archive` stamps every
# file with the commit time, so a target directory shared between parents
# would take an older commit's sources for fresh and run a stale binary.
# Pair k runs with `--seed k`, odd pairs parent first, even pairs change
# first. The result sets land in target/pairs/{parent,change}.json;
# `--compare` refuses sets that lack a workload, so it runs only for `all`.
#
# Each `row` names a `per_layer` entry of BENCHMARK.json. With rows, every
# pair also runs one `--trace 1` run per side, with the pair's seed and in
# the pair's order (sets in target/pairs/{parent,change}.traced.json), and
# the summary adds one line per row and workload: medians, quartiles and
# wins, labelled "per-layer, no bound" and with no verdict. A traced run
# measures every layer whatever the workload, so it takes about as long
# as an untraced one again. For example, where a KV change saves time:
#
#   sh scripts/bench-pairs.sh HEAD kv_zipf_get90 3 15 \
#       cohort_kvstore.sharded.contention_ns cohort_kvstore.sharded.op_1t_ns
# A run that exits non-zero stops the script with its output in
# target/pairs/runs/last.
#
# Each row of the summary ends in a verdict, by the rule printed above the
# table and the metric's `bound` in BENCHMARK.json (read, never edited).
#
# An environment prefix reaches both sides' runs, which is how to quote an
# allocator-state check (glibc's trim threshold pinned, instead of wherever
# its dynamic adjustment left it):
#
#   MALLOC_TRIM_THRESHOLD_=131072 sh scripts/bench-pairs.sh HEAD des_4096
set -eu
[ $# -ge 2 ] || {
    echo "usage: $0 <parent-ref> <workload|all> [pairs=10] [seconds=15] [row...]" >&2
    exit 2
}
ref=$1 asked=$2 pairs=${3:-10} seconds=${4:-15}
shift $(($# < 4 ? $# : 4))
root=$(pwd) dir=target/pairs
hash=$(git rev-parse --verify "$ref^{commit}")
# The entries of a top-level list of BENCHMARK.json (one `{"name": ...}`
# per line): `name`, or `name=higher|lower=<bound>` where the entry says
# which is better and by how much it may worsen.
entries() {
    awk -F'"' -v list="$1" '$2 == list {on = 1; next} /^  \]/ {on = 0}
        on {bound = $15; gsub(/[^0-9.]/, "", bound)
            print $4 ($10 == "better" ? "=" $12 "=" bound : "")}' BENCHMARK.json
}
workloads=$asked
[ "$asked" != all ] || workloads=$(entries workloads)
# The named rows as `entries per_layer` gives them: `name=higher|lower=`.
rows=
for row in "$@"; do
    entry=$(entries per_layer | awk -F= -v row="$row" '$1 == row')
    [ -n "$entry" ] || {
        echo "$0: no per_layer row \`$row\` in BENCHMARK.json" >&2
        exit 2
    }
    rows="$rows $entry"
done

echo "parent: $ref = $hash, built in $dir/target-$hash"
echo "change: working tree over $(git rev-parse HEAD)"
rm -rf "$dir/parent" "$dir"/parent*.json "$dir"/change*.json "$dir/runs"
mkdir -p "$dir/parent" "$dir/runs"
git archive "$hash" | tar -x -C "$dir/parent"
CARGO_TARGET_DIR="$root/$dir/target-$hash" \
    cargo build --release --quiet --manifest-path "$dir/parent/benchmark/Cargo.toml"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
parent=$root/$dir/target-$hash/release/benchmark
change=$root/benchmark/target/release/benchmark

# run <side> <binary> <workload> <pair> [1]: one run, traced when the 1 is
# given, appended to the side's result set; its one-line JSON result is
# kept for the table below.
run() {
    traced=${5:+.traced}
    "$2" --workload "$3" --seed "$4" --seconds "$seconds" --trace "${5:-0}" \
        --out "$dir/$1$traced.json" >"$dir/runs/last"
    tail -n 1 "$dir/runs/last" >>"$dir/runs/$1.$3$traced"
}
# pair <workload> <pair> [1]: both sides' runs, odd pairs parent first.
pair() {
    if [ $(($2 % 2)) -eq 1 ]; then
        run parent "$parent" "$@"
        run change "$change" "$@"
    else
        run change "$change" "$@"
        run parent "$parent" "$@"
    fi
}
for workload in $workloads; do
    pair=1
    while [ "$pair" -le "$pairs" ]; do
        pair "$workload" "$pair"
        [ -z "$rows" ] || pair "$workload" "$pair" 1
        echo "$workload: pair $pair of $pairs" >&2
        pair=$((pair + 1))
    done
done

[ "$asked" != all ] || "$change" --compare "$dir/parent.json" "$dir/change.json" || true

# One line per workload and end-to-end metric, then one per named row.
# Quartiles as the benchmark's `--compare` takes them (Python's exclusive
# method); a pair is a win for the side that reads better and a tie is a
# win for neither. A row has no bound, so it gets no verdict.
echo "verdict rule (spread = parent q3 - q1, bound from BENCHMARK.json):"
echo "  gain          change better in >= 9/10 of pairs, and its median better by more than the spread"
echo "  worse>bound   change median worse than parent median by more than the bound"
echo "  unresolved    spread / parent median > bound, and not every change run better than every parent run"
echo "  within bound  everything else"
# summary <workload> <entry> [.traced]: the line of one metric.
summary() {
    name=${2%%=*} rest=${2#*=}
    paste "$dir/runs/parent.$1${3-}" "$dir/runs/change.$1${3-}" |
        awk -F'\t' -v w="$1" -v m="$name" -v better="${rest%=*}" -v bound="${rest#*=}" '
        function value(line,    key) {
            key = "\"" m "\": {\"value\": "
            return substr(line, index(line, key) + length(key)) + 0
        }
        function sort(v, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        }
        function quartile(v, n, k,    pos, j) {
            if (n < 2) return v[1]
            pos = k * (n + 1) / 4; j = int(pos)
            if (j < 1) j = 1
            if (j > n - 1) j = n - 1
            return v[j] + (v[j + 1] - v[j]) * (pos - j)
        }
        # How much better a reads than b, signed: > 0 when a is better.
        function gain(a, b) { return better == "higher" ? a - b : b - a }
        {
            p[NR] = value($1); c[NR] = value($2)
            if (c[NR] != p[NR]) gain(c[NR], p[NR]) > 0 ? wins++ : losses++
        }
        END {
            sort(p, NR); sort(c, NR)
            pm = quartile(p, NR, 2); cm = quartile(c, NR, 2)
            spread = quartile(p, NR, 3) - quartile(p, NR, 1)
            # Every change run better than every parent run.
            apart = better == "higher" ? gain(c[1], p[NR]) > 0 : gain(c[NR], p[1]) > 0
            if (bound == "") verdict = "per-layer, no bound"
            else if (wins * 10 >= 9 * NR && gain(cm, pm) > spread) verdict = "gain"
            else if (-gain(cm, pm) > bound * pm) verdict = "worse>bound"
            else if (spread > bound * pm && !apart) verdict = "unresolved"
            else verdict = "within bound"
            printf "%-17s %-11s parent %.6g [q1 %.6g, q3 %.6g]  change %.6g [q1 %.6g, q3 %.6g]  x%.3f  change better in %d of %d, worse in %d (%s is better)  %s\n", \
                w, m, pm, quartile(p, NR, 1), quartile(p, NR, 3), \
                cm, quartile(c, NR, 1), quartile(c, NR, 3), \
                cm / pm, wins, NR, losses, better, verdict
        }'
}
for workload in $workloads; do
    for metric in $(entries end_to_end); do
        summary "$workload" "$metric"
    done
    for row in $rows; do
        summary "$workload" "$row" .traced
    done
done
