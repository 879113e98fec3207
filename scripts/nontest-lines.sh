#!/bin/sh
# The ROADMAP's counting rule (aim 2): non-test lines per tracked Rust
# file — every line before the first `#[cfg(test)]` at column 0 — for the
# `harness` and `bench` crates, then their total. Run from the repo root.
set -eu
for f in $(git ls-files 'crates/harness/**/*.rs' 'crates/bench/**/*.rs'); do
    awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {n++} END{printf "%6d %s\n", n+0, f}' "$f"
done | awk '{s+=$1; print} END{printf "%6d harness + bench non-test lines\n", s}'
