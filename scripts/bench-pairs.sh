#!/bin/sh
# The ROADMAP's rule for a speed claim: alternating parent/change pairs of
# a `benchmark/` workload, then medians, quartiles and wins-of-N for each
# end-to-end metric. Run from the repo root:
#
#   sh scripts/bench-pairs.sh <parent-ref> <workload|all> [pairs=10] [seconds=15]
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
    echo "usage: $0 <parent-ref> <workload|all> [pairs=10] [seconds=15]" >&2
    exit 2
}
ref=$1 workloads=$2 pairs=${3:-10} seconds=${4:-15}
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
[ "$workloads" != all ] || workloads=$(entries workloads)

echo "parent: $ref = $hash, built in $dir/target-$hash"
echo "change: working tree over $(git rev-parse HEAD)"
rm -rf "$dir/parent" "$dir/parent.json" "$dir/change.json" "$dir/runs"
mkdir -p "$dir/parent" "$dir/runs"
git archive "$hash" | tar -x -C "$dir/parent"
CARGO_TARGET_DIR="$root/$dir/target-$hash" \
    cargo build --release --quiet --manifest-path "$dir/parent/benchmark/Cargo.toml"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
parent=$root/$dir/target-$hash/release/benchmark
change=$root/benchmark/target/release/benchmark

# run <side> <binary> <workload> <pair>: one untraced run, appended to the
# side's result set; its one-line JSON result is kept for the table below.
run() {
    "$2" --workload "$3" --seed "$4" --seconds "$seconds" --out "$dir/$1.json" >"$dir/runs/last"
    tail -n 1 "$dir/runs/last" >>"$dir/runs/$1.$3"
}
for workload in $workloads; do
    pair=1
    while [ "$pair" -le "$pairs" ]; do
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$parent" "$workload" "$pair"
            run change "$change" "$workload" "$pair"
        else
            run change "$change" "$workload" "$pair"
            run parent "$parent" "$workload" "$pair"
        fi
        echo "$workload: pair $pair of $pairs" >&2
        pair=$((pair + 1))
    done
done

[ "$2" != all ] || "$change" --compare "$dir/parent.json" "$dir/change.json" || true

# One line per workload and end-to-end metric. Quartiles as the benchmark
# and the driver take them (Python's exclusive method); a pair is a win
# for the side that reads better and a tie is a win for neither.
echo "verdict rule (spread = parent q3 - q1, bound from BENCHMARK.json):"
echo "  gain          change better in >= 9/10 of pairs, and its median better by more than the spread"
echo "  worse>bound   change median worse than parent median by more than the bound"
echo "  unresolved    spread / parent median > bound, and not every change run better than every parent run"
echo "  within bound  everything else"
for workload in $workloads; do
    for metric in $(entries end_to_end); do
        name=${metric%%=*} rest=${metric#*=}
        paste "$dir/runs/parent.$workload" "$dir/runs/change.$workload" |
            awk -F'\t' -v w="$workload" -v m="$name" -v better="${rest%=*}" -v bound="${rest#*=}" '
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
                if (wins * 10 >= 9 * NR && gain(cm, pm) > spread) verdict = "gain"
                else if (-gain(cm, pm) > bound * pm) verdict = "worse>bound"
                else if (spread > bound * pm && !apart) verdict = "unresolved"
                else verdict = "within bound"
                printf "%-17s %-11s parent %.6g [q1 %.6g, q3 %.6g]  change %.6g [q1 %.6g, q3 %.6g]  x%.3f  change better in %d of %d, worse in %d (%s is better)  %s\n", \
                    w, m, pm, quartile(p, NR, 1), quartile(p, NR, 3), \
                    cm, quartile(c, NR, 1), quartile(c, NR, 3), \
                    cm / pm, wins, NR, losses, better, verdict
            }'
    done
done
