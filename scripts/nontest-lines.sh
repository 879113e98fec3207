#!/bin/sh
# The ROADMAP's counting rule (aim 2): non-test lines per tracked Rust
# file — every line before the first `#[cfg(test)]` at column 0 — for the
# given crate directories (default: the `harness` and `bench` crates),
# then their total. Run from the repo root:
#   sh scripts/nontest-lines.sh [crates/<name>...]
set -eu
[ $# -gt 0 ] || set -- crates/harness crates/bench
label=
for dir; do
    dir=${dir%/}
    label="${label:+$label + }${dir##*/}"
    set -- "$@" "$dir/**/*.rs"
    shift
done
for f in $(git ls-files "$@"); do
    awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {n++} END{printf "%6d %s\n", n+0, f}' "$f"
done | awk -v label="$label" '{s+=$1; print} END{printf "%6d %s non-test lines\n", s, label}'
