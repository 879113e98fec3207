#!/bin/sh
# Non-test lines that mention `unsafe`, per tracked Rust file and in
# total, for the given crate directories (default: the three lock crates
# `base-locks`, `core` and `baselines`). Non-test is the rule of
# scripts/nontest-lines.sh: every line before the first `#[cfg(test)]` at
# column 0. Run from the repo root:
#   sh scripts/unsafe-count.sh [crates/<name>...]
set -eu
[ $# -gt 0 ] || set -- crates/base-locks crates/core crates/baselines
label=
for dir; do
    dir=${dir%/}
    label="${label:+$label + }${dir##*/}"
    set -- "$@" "$dir/**/*.rs"
    shift
done
for f in $(git ls-files "$@"); do
    awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} /unsafe/{n++} END{printf "%6d %s\n", n+0, f}' "$f"
done | awk -v label="$label" '{s+=$1; print} END{printf "%6d %s non-test lines mentioning unsafe\n", s, label}'
