//! Property tests for the reciprocating lock: randomized thread counts,
//! cluster counts, iteration counts, and era bounds, each case checking
//! the three reciprocating invariants:
//!
//! 1. **mutual exclusion under palindromic admission** — the
//!    torn-counter detector never observes a raced critical section,
//!    whichever interleaving of arrivals-stack pushes, in-segment
//!    handovers, and era rollovers the schedule produces;
//! 2. **no lost waiters across era flips** — every acquisition
//!    completes even under adversarially tight era bounds (down to one
//!    admission per detached segment, the maximum rollover rate), where
//!    a remainder-requeue bug or a rollover/push race would strand a
//!    stack-frame wait element and deadlock the run before the final
//!    op-count assertion;
//! 3. **bounded bypass** — every token's remaining era budget stays
//!    strictly below the configured bound ([`RecipToken::budget`]), so
//!    no detached segment ever serves more critical sections than the
//!    era permits: fresh arrivals are bypassed at most `bound` times.
//!
//! A deterministic companion exercises the cohortized composition
//! (`CRecipMcs` — Recip in the *global* slot, where its plain-word token
//! must cross threads) under the same detector.

use lock_cohorting::base_locks::{RawLock, ReciprocatingLock};
use lock_cohorting::cohort::CRecipMcs;
use lock_cohorting::numa_topology::{
    bind_current_thread, reset_thread_binding, ClusterId, Topology,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// Outcome of one randomized run, aggregated across its worker threads.
struct RunOutcome {
    /// Torn critical sections observed (must be 0).
    violations: u64,
    /// Acquisitions completed (must equal `threads * iters`).
    ops: u64,
    /// Largest remaining era budget observed in any token.
    max_budget: usize,
}

fn run_contended(
    lock: &Arc<ReciprocatingLock>,
    topo: &Arc<Topology>,
    threads: usize,
    clusters: usize,
    iters: u64,
) -> RunOutcome {
    let a = Arc::new(AtomicU64::new(0));
    let b = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    let max_budget = Arc::new(AtomicUsize::new(0));
    // Start together and yield inside the critical section so the
    // interesting windows actually open: pushes racing the rollover
    // swaps, segments detaching under a non-empty stack, eras expiring
    // mid-queue.
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let lock = Arc::clone(lock);
            let topo = Arc::clone(topo);
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            let violations = Arc::clone(&violations);
            let max_budget = Arc::clone(&max_budget);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                bind_current_thread(&topo, ClusterId::new((i % clusters) as u32));
                barrier.wait();
                let mut ops = 0u64;
                for _ in 0..iters {
                    let t = lock.lock();
                    max_budget.fetch_max(t.budget(), Ordering::Relaxed);
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
        ops += h.join().expect("recip worker panicked");
    }
    RunOutcome {
        violations: violations.load(Ordering::Relaxed),
        ops,
        max_budget: max_budget.load(Ordering::Relaxed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recip_invariants_hold_under_random_configurations(
        threads in 2usize..6,
        clusters in 1usize..5,
        iters in 40u64..120,
        // 1 = rollover on every grant (maximum era-flip pressure);
        // small bounds keep the remainder-requeue path hot.
        era_bound in 1usize..6,
    ) {
        let topo = Arc::new(Topology::new(clusters));
        let lock = Arc::new(ReciprocatingLock::with_era_bound(era_bound));
        let out = run_contended(&lock, &topo, threads, clusters, iters);

        // 1: mutual exclusion under palindromic admission.
        prop_assert_eq!(out.violations, 0, "critical section raced");

        // 2: no lost waiters across era flips. A stranded wait element
        // would deadlock the run before this point; the exact op count
        // confirms nobody was dropped *or* double-admitted.
        prop_assert_eq!(out.ops, threads as u64 * iters);
        prop_assert!(
            !lock.has_waiters_or_holder(),
            "arrivals word did not return to UNLOCKED at quiescence"
        );

        // 3: bounded bypass — no token ever carries a full era.
        prop_assert!(
            out.max_budget < era_bound,
            "token budget {} reached the era bound {}",
            out.max_budget,
            era_bound
        );
    }

    #[test]
    fn unbounded_recip_keeps_exclusion_and_loses_no_waiters(
        threads in 2usize..6,
        iters in 40u64..120,
    ) {
        // The paper's base algorithm (unbounded eras): same detector,
        // rollovers happen only when a detached segment drains.
        let topo = Arc::new(Topology::new(2));
        let lock = Arc::new(ReciprocatingLock::new());
        let out = run_contended(&lock, &topo, threads, 2, iters);
        prop_assert_eq!(out.violations, 0, "critical section raced");
        prop_assert_eq!(out.ops, threads as u64 * iters);
        prop_assert!(!lock.has_waiters_or_holder());
    }
}

/// Deterministic companion: the cohortized composition under the same
/// torn-counter detector — Recip's token crosses threads inside the
/// cohort machinery (local handoffs release the global lock from
/// whichever thread ends the tenure).
#[test]
fn cohortized_recip_keeps_exclusion_and_conserves_counters() {
    let topo = Arc::new(Topology::new(4));
    let lock = Arc::new(CRecipMcs::new(Arc::clone(&topo)));
    let a = Arc::new(AtomicU64::new(0));
    let b = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            let lock = Arc::clone(&lock);
            let topo = Arc::clone(&topo);
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                bind_current_thread(&topo, ClusterId::new((i % 4) as u32));
                for _ in 0..500 {
                    let t = lock.lock();
                    let va = a.load(Ordering::Relaxed);
                    let vb = b.load(Ordering::Relaxed);
                    assert_eq!(va, vb, "critical section raced");
                    a.store(va + 1, Ordering::Relaxed);
                    std::thread::yield_now();
                    b.store(vb + 1, Ordering::Relaxed);
                    // SAFETY: our own token.
                    unsafe { lock.unlock(t) };
                }
                reset_thread_binding();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(a.load(Ordering::Relaxed), 2_000);
    let stats = lock.cohort_stats();
    assert_eq!(
        stats.tenures() + stats.local_handoffs(),
        2_000,
        "every acquisition is a tenure start or a local inheritance, \
         and every tenure ends"
    );
}
