//! Pins every handoff policy's decisions: one scripted single-thread hook
//! trace per [`PolicySpec`], asserting each `may_pass_local` answer and the
//! final [`CohortStats`] field by field on three clusters. The scripts use
//! nothing but the three tenure hooks (a committed handoff calls none: it
//! lives in the streak that `ended` adds), so they hold whatever structure
//! implements them. Every book reads a scripted clock that only the script
//! moves, so the clocked specs replay exactly too.

use cohort::{PolicySpec, Tenures as Book};
use numa_topology::ClusterId;
use std::cell::Cell;

const CLUSTERS: usize = 3;
/// "Cluster-mates never stop arriving."
const ENDLESS: u64 = u64::MAX;

thread_local! {
    static NOW: Cell<u64> = const { Cell::new(0) };
}

/// The scripted clock, in nanoseconds.
fn now() -> u64 {
    NOW.get()
}

fn advance(ns: u64) {
    NOW.set(NOW.get() + ns);
}

fn c(id: u32) -> ClusterId {
    ClusterId::new(id)
}

fn book(spec: PolicySpec) -> Book {
    let book = Book::new(spec, CLUSTERS, now);
    assert_eq!(
        book.label(),
        spec.to_string(),
        "label is the spec's Display"
    );
    book
}

/// One whole tenure on `cluster` with `demand` cluster-mates queued behind
/// the first holder: hands off while a mate waits and the policy allows,
/// then releases globally. Returns the streak reached — with
/// `demand == ENDLESS` that is the first streak the policy refused, and
/// every streak below it was allowed.
fn tenure(book: &Book, cluster: ClusterId, demand: u64) -> u64 {
    tenure_with(book, cluster, demand, || {})
}

/// [`tenure`] with `between` run after every committed handoff (the
/// successor's critical section).
fn tenure_with(book: &Book, cluster: ClusterId, demand: u64, mut between: impl FnMut()) -> u64 {
    book.began(cluster);
    let mut streak = 0;
    while streak < demand && book.may_pass_local(cluster, streak) {
        streak += 1;
        between();
    }
    book.ended(cluster, streak);
    streak
}

/// The first streak `cluster`'s holder would be refused at, by asking the
/// predicate alone (streak-based policies only: the answer must not
/// depend on a clock).
fn first_refused(book: &Book, cluster: ClusterId) -> u64 {
    (0..=4096)
        .find(|&streak| !book.may_pass_local(cluster, streak))
        .expect("a streak-bounded policy refuses within 4096")
}

/// [`tenure`] that also reports the bound in force: `[first refused
/// streak, streak reached]`.
fn probed_tenure(book: &Book, cluster: ClusterId, demand: u64) -> [u64; 2] {
    [first_refused(book, cluster), tenure(book, cluster, demand)]
}

/// `[tenures, local_handoffs, max_streak]` per cluster, compared field by
/// field; the wrapper counters stay zero.
fn assert_stats(book: &Book, want: [[u64; 3]; CLUSTERS]) {
    let label = book.label();
    let got = book.snapshot();
    assert_eq!(
        got.per_cluster.len(),
        CLUSTERS,
        "{label}: one entry per cluster"
    );
    for (i, (got, want)) in got.per_cluster.iter().zip(want).enumerate() {
        assert_eq!(
            [got.tenures, got.local_handoffs, got.max_streak],
            want,
            "{label}: cluster {i} [tenures, local_handoffs, max_streak]"
        );
    }
    assert_eq!(got.fast_acquisitions, 0, "{label}");
    assert_eq!(got.slow_acquisitions, 0, "{label}");
    assert_eq!(got.passive_parks, 0, "{label}");
    assert_eq!(got.promotions, 0, "{label}");
}

const IDLE: [u64; 3] = [0; 3];

#[test]
fn every_spec_replays_its_pinned_decisions() {
    // count(0): the very first release already goes global.
    let b = book(PolicySpec::Count { bound: 0 });
    assert_eq!(tenure(&b, c(0), ENDLESS), 0);
    assert_eq!(tenure(&b, c(0), ENDLESS), 0);
    assert_stats(&b, [[2, 0, 0], IDLE, IDLE]);

    // count(1): exactly one handoff per tenure, on every cluster alike.
    let b = book(PolicySpec::Count { bound: 1 });
    assert_eq!(tenure(&b, c(0), ENDLESS), 1);
    assert_eq!(tenure(&b, c(2), ENDLESS), 1);
    assert_eq!(
        tenure(&b, c(2), 0),
        0,
        "nobody waiting: no handoff to refuse"
    );
    assert_stats(&b, [[1, 1, 1], IDLE, [2, 1, 1]]);

    // count(64): the paper's rule.
    let b = book(PolicySpec::Count { bound: 64 });
    assert!(b.may_pass_local(c(0), 63));
    assert!(!b.may_pass_local(c(0), 64));
    assert!(!b.may_pass_local(c(0), u64::MAX));
    assert_eq!(tenure(&b, c(1), ENDLESS), 64);
    assert_eq!(
        tenure(&b, c(1), 10),
        10,
        "a cluster that runs dry ends early"
    );
    assert_stats(&b, [IDLE, [2, 74, 64], IDLE]);

    // time(40ns): the tenure ends when the book's clock has moved 40 ns
    // past the tenure start, whatever the streak.
    NOW.set(1_000);
    let b = book(PolicySpec::Time { budget_ns: 40 });
    // Handoffs 10 ns apart: allowed at 0, 10, 20, 30 ns, refused at 40.
    assert_eq!(tenure_with(&b, c(0), ENDLESS, || advance(10)), 4);
    b.began(c(1));
    assert!(
        b.may_pass_local(c(1), 0),
        "a fresh tenure has its own budget"
    );
    advance(39);
    assert!(
        b.may_pass_local(c(1), 1_000_000),
        "the streak is irrelevant"
    );
    advance(1);
    assert!(!b.may_pass_local(c(1), 0), "40 ns elapsed: budget spent");
    b.ended(c(1), 0);
    assert_stats(&b, [[1, 4, 4], [1, 0, 0], IDLE]);

    // time(u64::MAX ns) never expires; time(0ns) never passes.
    let b = book(PolicySpec::Time {
        budget_ns: u64::MAX,
    });
    assert_eq!(tenure_with(&b, c(2), 500, || advance(1_000_000)), 500);
    assert_stats(&b, [IDLE, IDLE, [1, 500, 500]]);
    let b = book(PolicySpec::Time { budget_ns: 0 });
    assert_eq!(tenure(&b, c(0), ENDLESS), 0);
    assert_stats(&b, [[1, 0, 0], IDLE, IDLE]);

    // adaptive(4..128) on cluster 1: starts at the paper's 64, doubles
    // after a cut-off tenure, holds after one that used a quarter or more
    // of the bound, halves after a drier one, and stays inside [4, 128].
    // Each row is [bound in force, streak reached] of one tenure; tenures
    // take no time and follow each other at once unless the row says so.
    let b = book(PolicySpec::Adaptive { min: 4, max: 128 });
    assert_eq!(
        probed_tenure(&b, c(1), ENDLESS),
        [64, 64],
        "64 clamped into [4, 128]"
    );
    assert_eq!(
        probed_tenure(&b, c(1), ENDLESS),
        [128, 128],
        "cut off: grow"
    );
    assert_eq!(
        probed_tenure(&b, c(1), 32),
        [128, 32],
        "cut off at the ceiling: clamp"
    );
    assert_eq!(probed_tenure(&b, c(1), 31), [128, 31], "32 * 4 = 128: hold");
    assert_eq!(probed_tenure(&b, c(1), 0), [64, 0], "31 * 4 < 128: shrink");
    for want in [32, 16, 8, 4] {
        assert_eq!(
            probed_tenure(&b, c(1), 0),
            [want, 0],
            "dry tenures halve down to the floor"
        );
    }
    assert_eq!(
        probed_tenure(&b, c(1), ENDLESS),
        [4, 4],
        "never below the floor"
    );
    // A dry tenure shrinks only if the global-lock wait before it was no
    // longer than the tenure plus 10 µs of grace.
    advance(10_001);
    assert_eq!(
        probed_tenure(&b, c(1), 0),
        [8, 0],
        "demand returned (grow), then a long wait: hold"
    );
    advance(10_000);
    assert_eq!(
        probed_tenure(&b, c(1), 0),
        [8, 0],
        "a wait inside the grace: shrink"
    );
    assert_eq!(first_refused(&b, c(1)), 4);
    assert_eq!(first_refused(&b, c(0)), 64, "bounds are per cluster");
    assert_eq!(first_refused(&b, c(2)), 64, "bounds are per cluster");
    // Streaks 64 + 128 + 32 + 31 + 4 = 259 over 12 tenures.
    assert_stats(&b, [IDLE, [12, 259, 128], IDLE]);

    // unbounded: only an empty cluster ends a tenure.
    let b = book(PolicySpec::Unbounded);
    assert!(b.may_pass_local(c(0), u64::MAX));
    assert_eq!(tenure(&b, c(0), 1_000), 1_000);
    assert_stats(&b, [[1, 1_000, 1_000], IDLE, IDLE]);

    // never-pass: every release is a global release.
    let b = book(PolicySpec::NeverPass);
    assert_eq!(tenure(&b, c(0), ENDLESS), 0);
    assert_eq!(tenure(&b, c(1), ENDLESS), 0);
    assert_stats(&b, [[1, 0, 0], [1, 0, 0], IDLE]);
}
