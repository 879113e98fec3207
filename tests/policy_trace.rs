//! Pins every handoff policy's decisions: one scripted single-thread hook
//! trace per [`PolicySpec`], asserting each `may_pass_local` answer and the
//! final [`CohortStats`] field by field on three clusters. The scripts use
//! nothing but the four tenure hooks, so they hold whatever structure
//! implements them.

use cohort::{PolicySpec, Tenures as Book};
use numa_topology::{vclock, ClusterId};

const CLUSTERS: usize = 3;
/// "Cluster-mates never stop arriving."
const ENDLESS: u64 = u64::MAX;

fn c(id: u32) -> ClusterId {
    ClusterId::new(id)
}

fn book(spec: PolicySpec) -> Book {
    let book = Book::new(spec, CLUSTERS);
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
        book.handed_off(cluster, streak);
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

/// `[tenures, local_handoffs, global_releases, max_streak, sum_streak]`
/// per cluster, compared field by field; the wrapper counters stay zero.
fn assert_stats(book: &Book, want: [[u64; 5]; CLUSTERS]) {
    let label = book.label();
    let got = book.snapshot();
    assert_eq!(
        got.per_cluster.len(),
        CLUSTERS,
        "{label}: one entry per cluster"
    );
    for (i, (got, want)) in got.per_cluster.iter().zip(want).enumerate() {
        assert_eq!(
            [
                got.tenures,
                got.local_handoffs,
                got.global_releases,
                got.max_streak,
                got.sum_streak
            ],
            want,
            "{label}: cluster {i} [tenures, local_handoffs, global_releases, max_streak, sum_streak]"
        );
    }
    assert_eq!(got.fast_acquisitions, 0, "{label}");
    assert_eq!(got.slow_acquisitions, 0, "{label}");
    assert_eq!(got.passive_parks, 0, "{label}");
    assert_eq!(got.promotions, 0, "{label}");
}

const IDLE: [u64; 5] = [0; 5];

#[test]
fn every_spec_replays_its_pinned_decisions() {
    // count(0): the very first release already goes global.
    let b = book(PolicySpec::Count { bound: 0 });
    assert_eq!(tenure(&b, c(0), ENDLESS), 0);
    assert_eq!(tenure(&b, c(0), ENDLESS), 0);
    assert_stats(&b, [[2, 0, 2, 0, 0], IDLE, IDLE]);

    // count(1): exactly one handoff per tenure, on every cluster alike.
    let b = book(PolicySpec::Count { bound: 1 });
    assert_eq!(tenure(&b, c(0), ENDLESS), 1);
    assert_eq!(tenure(&b, c(2), ENDLESS), 1);
    assert_eq!(
        tenure(&b, c(2), 0),
        0,
        "nobody waiting: no handoff to refuse"
    );
    assert_stats(&b, [[1, 1, 1, 1, 1], IDLE, [2, 1, 2, 1, 1]]);

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
    assert_stats(&b, [IDLE, [2, 74, 2, 64, 74], IDLE]);

    // time(40ns): the tenure ends when the holder's virtual clock has
    // moved 40 ns past the tenure start, whatever the streak.
    vclock::reset();
    vclock::set(1_000);
    let b = book(PolicySpec::Time { budget_ns: 40 });
    // Handoffs 10 ns apart: allowed at 0, 10, 20, 30 ns, refused at 40.
    assert_eq!(
        tenure_with(&b, c(0), ENDLESS, || {
            vclock::advance(10);
        }),
        4
    );
    b.began(c(1));
    assert!(
        b.may_pass_local(c(1), 0),
        "a fresh tenure has its own budget"
    );
    vclock::advance(39);
    assert!(
        b.may_pass_local(c(1), 1_000_000),
        "the streak is irrelevant"
    );
    vclock::advance(1);
    assert!(!b.may_pass_local(c(1), 0), "40 ns elapsed: budget spent");
    b.ended(c(1), 0);
    assert_stats(&b, [[1, 4, 1, 4, 4], [1, 0, 1, 0, 0], IDLE]);
    vclock::reset();

    // wall-time(u64::MAX ns) never expires; wall-time(0ns) never passes.
    let b = book(PolicySpec::WallTime {
        budget_ns: u64::MAX,
    });
    assert_eq!(tenure(&b, c(2), 500), 500);
    assert_stats(&b, [IDLE, IDLE, [1, 500, 1, 500, 500]]);
    let b = book(PolicySpec::WallTime { budget_ns: 0 });
    assert_eq!(tenure(&b, c(0), ENDLESS), 0);
    assert_stats(&b, [[1, 0, 1, 0, 0], IDLE, IDLE]);

    // adaptive(4..128) on cluster 1: starts at the paper's 64, doubles
    // after a cut-off tenure, holds after one that used a quarter or more
    // of the bound, halves after a drier one, and stays inside [4, 128].
    let b = book(PolicySpec::Adaptive { min: 4, max: 128 });
    assert_eq!(first_refused(&b, c(1)), 64, "64 clamped into [4, 128]");
    assert_eq!(tenure(&b, c(1), ENDLESS), 64);
    assert_eq!(first_refused(&b, c(1)), 128, "cut off: grow");
    assert_eq!(tenure(&b, c(1), ENDLESS), 128);
    assert_eq!(
        first_refused(&b, c(1)),
        128,
        "cut off at the ceiling: clamp"
    );
    assert_eq!(tenure(&b, c(1), 32), 32);
    assert_eq!(first_refused(&b, c(1)), 128, "32 * 4 = 128: hold");
    assert_eq!(tenure(&b, c(1), 31), 31);
    assert_eq!(first_refused(&b, c(1)), 64, "31 * 4 < 128: shrink");
    for want in [32, 16, 8, 4, 4] {
        assert_eq!(tenure(&b, c(1), 0), 0);
        assert_eq!(
            first_refused(&b, c(1)),
            want,
            "dry tenures halve down to the floor"
        );
    }
    assert_eq!(tenure(&b, c(1), ENDLESS), 4);
    assert_eq!(first_refused(&b, c(1)), 8, "demand returns: grow again");
    assert_eq!(first_refused(&b, c(0)), 64, "bounds are per cluster");
    assert_eq!(first_refused(&b, c(2)), 64, "bounds are per cluster");
    // Streaks 64 + 128 + 32 + 31 + 4 = 259 over 10 tenures.
    assert_stats(&b, [IDLE, [10, 259, 10, 128, 259], IDLE]);

    // unbounded: only an empty cluster ends a tenure.
    let b = book(PolicySpec::Unbounded);
    assert!(b.may_pass_local(c(0), u64::MAX));
    assert_eq!(tenure(&b, c(0), 1_000), 1_000);
    assert_stats(&b, [[1, 1_000, 1, 1_000, 1_000], IDLE, IDLE]);

    // never-pass: every release is a global release.
    let b = book(PolicySpec::NeverPass);
    assert_eq!(tenure(&b, c(0), ENDLESS), 0);
    assert_eq!(tenure(&b, c(1), ENDLESS), 0);
    assert_stats(&b, [[1, 0, 1, 0, 0], [1, 0, 1, 0, 0], IDLE]);
}
