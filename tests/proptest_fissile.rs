//! Property tests for the fissile fast-path lock: randomized thread
//! counts, cluster counts, policy bounds, and fast-path tunings, each
//! case checking the three fissile invariants:
//!
//! 1. **mutual exclusion across fast/slow races** — the torn-counter
//!    detector never observes a raced critical section, whichever mix of
//!    fast-path CAS wins and cohort slow-path claims the schedule
//!    produces;
//! 2. **no lost waiters** — every acquisition completes even when the
//!    fast path is claimed out from under a spinning thread (it must
//!    fission into the slow path) and when fast acquirers bypass a
//!    slow-path claimant (the anti-starvation fence bounds the bypassing,
//!    so the run *finishing* is itself the starvation-freedom evidence);
//!    the accounting must balance exactly: `fast + slow` acquisitions
//!    cover every op, and the slow path conserves the usual cohort
//!    counters;
//! 3. **anti-starvation bound honored** — adversarially tight tunings
//!    (single-probe fast path, single-round bypass tolerance) still
//!    complete, and the slow path's policy bound keeps holding
//!    (`max_streak <= bound`): the word graft must not let the cohort
//!    layer exceed its configured fairness.

use lock_cohorting::base_locks::{McsLock, RawLock};
use lock_cohorting::cohort::{FissileLock, FissileTuning, GlobalBoLock, PolicySpec};
use lock_cohorting::numa_topology::{
    bind_current_thread, reset_thread_binding, ClusterId, Topology,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

type Fis = FissileLock<GlobalBoLock, McsLock>;

/// Outcome of one randomized run, aggregated across its worker threads.
struct RunOutcome {
    /// Torn critical sections observed (must be 0).
    violations: u64,
    /// Acquisitions completed (must equal `threads * iters`).
    ops: u64,
}

fn run_contended(
    lock: &Arc<Fis>,
    topo: &Arc<Topology>,
    threads: usize,
    clusters: usize,
    iters: u64,
) -> RunOutcome {
    let a = Arc::new(AtomicU64::new(0));
    let b = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    // Start together and yield inside the critical section so both
    // paths are actually exercised: the yield window is where fast-path
    // CAS races, slow-path claims, and fence raises interleave.
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
        ops += h.join().expect("fissile worker panicked");
    }
    RunOutcome {
        violations: violations.load(Ordering::Relaxed),
        ops,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fissile_invariants_hold_under_random_configurations(
        threads in 2usize..6,
        clusters in 1usize..5,
        iters in 40u64..120,
        bound in 1u64..6,
        fast_attempts in 1u32..8,
        bypass_bound in 1u32..8,
    ) {
        let topo = Arc::new(Topology::new(clusters));
        let lock: Arc<Fis> = Arc::new(FissileLock::with_tuning(
            Arc::clone(&topo),
            PolicySpec::Count { bound },
            FissileTuning { fast_attempts, bypass_bound },
        ));
        let out = run_contended(&lock, &topo, threads, clusters, iters);

        // 1: mutual exclusion across fast/slow path races.
        prop_assert_eq!(out.violations, 0, "critical section raced");

        // 2: no lost waiters. A fast spinner whose word is claimed out
        // from under it must fission and complete; a slow claimant
        // bypassed by fast acquirers must get through under the fence —
        // either failure would deadlock the run before this point.
        prop_assert_eq!(out.ops, threads as u64 * iters);
        let stats = lock.cohort_stats();
        prop_assert_eq!(
            stats.fast_acquisitions + stats.slow_acquisitions,
            out.ops,
            "every acquisition is fast or slow, never both or neither"
        );
        prop_assert_eq!(
            stats.tenures() + stats.local_handoffs(),
            stats.slow_acquisitions,
            "slow-path accounting leaked across the word graft"
        );

        // 3: the slow path's fairness bound survives the graft.
        prop_assert!(
            stats.max_streak() <= bound,
            "streak {} exceeds policy bound {}",
            stats.max_streak(),
            bound
        );
    }
}
