//! Pins the one atomic read-modify-write [`Directory`] still issues: the
//! CAS with which `read` publishes a word that must change.
//!
//! `write` and the unchanged-word branch of `read` are plain loads and
//! stores; `proptest_model::directory_matches_reference_protocol` holds
//! their charges, states, clock and thread statistics to a reference MESI
//! model on one thread. What only threads can show is here.

use coherence_sim::{take_thread_stats, CostModel, Directory, LineState, ThreadStats};
use numa_topology::ClusterId;
use std::sync::{Arc, Barrier};

/// Loads race under shared locks, so `read` keeps a CAS where the word
/// must change. Eight clusters load the same three lines — one `Invalid`,
/// one `Shared`, one `Modified` — through a barrier: no sharer bit may be
/// lost, exactly one loader may be charged the cold miss, and nobody's
/// access may go uncounted.
#[test]
fn racing_loads_all_land() {
    const CLUSTERS: u32 = 8;
    const ROUNDS: usize = 1000;
    const INVALID: usize = 0;
    const SHARED: usize = 1;
    const MODIFIED: usize = 2;
    let model = CostModel::t5440();
    let dirs: Arc<Vec<Directory>> = Arc::new(
        (0..ROUNDS)
            .map(|_| {
                let d = Directory::new(3, model);
                d.read(SHARED, ClusterId::new(0));
                d.write(MODIFIED, ClusterId::new(0));
                d
            })
            .collect(),
    );
    let barrier = Arc::new(Barrier::new(CLUSTERS as usize));
    let per_thread: Vec<ThreadStats> = (0..CLUSTERS)
        .map(|c| {
            let dirs = Arc::clone(&dirs);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let cl = ClusterId::new(c);
                take_thread_stats();
                for d in dirs.iter() {
                    barrier.wait();
                    for line in [INVALID, SHARED, MODIFIED] {
                        d.read(line, cl);
                    }
                }
                take_thread_stats()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("loader panicked"))
        .collect();

    let all = LineState::Shared {
        sharers: (1 << CLUSTERS) - 1,
    };
    for d in dirs.iter() {
        for line in [INVALID, SHARED, MODIFIED] {
            assert_eq!(d.state_of(line), all, "line {line}");
        }
    }
    let sum = |f: fn(&ThreadStats) -> u64| per_thread.iter().map(f).sum::<u64>();
    for s in &per_thread {
        assert_eq!(s.accesses, 3 * ROUNDS as u64);
    }
    assert_eq!(
        sum(|s| s.cold_misses),
        ROUNDS as u64,
        "one cold miss per Invalid line"
    );
    // Per round: 7 of 8 loaders of the Invalid line find it already
    // shared by someone else, and clusters 1..8 miss on the two lines
    // cluster 0 set up; cluster 0 hits both.
    assert_eq!(sum(|s| s.remote_misses), (7 + 7 + 7) * ROUNDS as u64);
    assert_eq!(
        sum(|s| s.charged_ns),
        ROUNDS as u64 * (model.cold_ns + 21 * model.remote_ns + 2 * model.local_ns)
    );
}
