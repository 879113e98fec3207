//! Property tests for the CNA lock: randomized thread counts, cluster
//! counts, fairness thresholds, and scan limits, each case checking the
//! three CNA invariants:
//!
//! 1. **mutual exclusion** — the torn-counter detector never observes a
//!    raced critical section;
//! 2. **no lost waiters** — every acquisition completes even as the
//!    release path splices waiters onto (and back off) the secondary
//!    queue: `tenures + local_handoffs` accounts for every acquisition
//!    and every streak that starts also ends;
//! 3. **bounded local streaks** — no run of consecutive deliberate local
//!    handoffs exceeds the configured fairness threshold.

use lock_cohorting::base_locks::RawLock;
use lock_cohorting::cohort::PolicySpec;
use lock_cohorting::numa_baselines::CnaLock;
use lock_cohorting::numa_topology::{
    bind_current_thread, reset_thread_binding, ClusterId, Topology,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

/// Outcome of one randomized run, aggregated across its worker threads.
struct RunOutcome {
    /// Torn critical sections observed (must be 0).
    violations: u64,
    /// Acquisitions completed (must equal `threads * iters`).
    ops: u64,
}

fn run_contended(
    lock: &Arc<CnaLock>,
    topo: &Arc<Topology>,
    threads: usize,
    clusters: usize,
    iters: u64,
) -> RunOutcome {
    let a = Arc::new(AtomicU64::new(0));
    let b = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    // Start together and yield inside the critical section so a real
    // queue forms even on a single-CPU host (otherwise each thread runs
    // its whole loop uncontended and the splicing paths are never taken).
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let lock = Arc::clone(lock);
            let topo = Arc::clone(topo);
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            let violations = Arc::clone(&violations);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Deterministic placement: interleave clusters so release
                // scans actually skip remote waiters.
                bind_current_thread(&topo, ClusterId::new((i % clusters) as u32));
                barrier.wait();
                let mut ops = 0u64;
                for _ in 0..iters {
                    let t = lock.lock();
                    let va = a.load(Ordering::Relaxed);
                    let vb = b.load(Ordering::Relaxed);
                    if va != vb {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    a.store(va + 1, Ordering::Relaxed);
                    std::thread::yield_now();
                    b.store(vb + 1, Ordering::Relaxed);
                    // SAFETY: token from this lock's own `lock()`.
                    unsafe { lock.unlock(t) };
                    ops += 1;
                }
                reset_thread_binding();
                ops
            })
        })
        .collect();
    let mut ops = 0u64;
    for h in handles {
        ops += h.join().expect("cna worker panicked");
    }
    RunOutcome {
        violations: violations.load(Ordering::Relaxed),
        ops,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cna_invariants_hold_under_random_configurations(
        threads in 2usize..6,
        clusters in 1usize..5,
        iters in 40u64..120,
        bound in 1u64..6,
        scan_limit in 1usize..8,
    ) {
        let topo = Arc::new(Topology::new(clusters));
        let lock = Arc::new(
            CnaLock::with_policy(Arc::clone(&topo), PolicySpec::Count { bound })
                .with_scan_limit(scan_limit),
        );
        let out = run_contended(&lock, &topo, threads, clusters, iters);

        // 1: mutual exclusion.
        prop_assert_eq!(out.violations, 0, "critical section raced");

        // 2: no lost waiters — every iteration completed (a waiter
        // stranded on the secondary queue would deadlock the run before
        // this point), and the accounting balances: every acquisition is
        // a streak start or a local inheritance, every streak ends.
        prop_assert_eq!(out.ops, threads as u64 * iters);
        let stats = lock.cohort_stats();
        prop_assert_eq!(
            stats.tenures() + stats.local_handoffs(),
            out.ops,
            "acquisition accounting leaked across the secondary queue"
        );

        // 3: the fairness threshold bounds consecutive local handoffs.
        prop_assert!(
            stats.max_streak() <= bound,
            "streak {} exceeds threshold {}",
            stats.max_streak(),
            bound
        );
    }
}

/// Deterministic companion for the empty-queue release. The property test
/// yields inside the critical section, so a releaser almost always finds
/// a successor; here two threads of one cluster run an empty critical
/// section, so releases keep leaving the lock free with the tail CAS. The
/// holder alone writes the tenure book (a plain load + store), so a
/// booking issued after that CAS would race the next holder's on the same
/// slot and lose updates: every round must account for every acquisition
/// exactly. Workers join under a 60 s deadline that dumps the lock.
#[test]
fn one_cluster_hammer_books_every_acquisition() {
    const ROUNDS: u64 = 20;
    const PER_THREAD: u64 = 100_000;
    for round in 0..ROUNDS {
        let lock = Arc::new(CnaLock::new(Arc::new(Topology::new(1))));
        let (tx, rx) = mpsc::channel();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (lock, tx) = (Arc::clone(&lock), tx.clone());
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        let t = lock.lock();
                        // SAFETY: token from this lock's own `lock()`.
                        unsafe { lock.unlock(t) };
                    }
                    let _ = tx.send(());
                })
            })
            .collect();
        drop(tx);
        for _ in &handles {
            rx.recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("CNA workers did not finish ({e}): {lock:?}"));
        }
        for h in handles {
            h.join().expect("worker reported done");
        }
        let s = lock.cohort_stats();
        assert_eq!(
            s.tenures() + s.local_handoffs(),
            2 * PER_THREAD,
            "round {round}: {s}"
        );
    }
}
